(** IR transformations: constant folding, CSE, DCE, and the
    canonicalization pass that combines them (MLIR's [-canonicalize]
    equivalent).

    Canonicalization is intentionally conservative — it mirrors what MLIR's
    default canonicalization patterns do for the dialects we model
    (folding, algebraic identities via folders, redundancy elimination).
    It does {e not} perform strength reduction (div-by-power-of-two) or
    re-association; those are exactly the optimizations the paper expresses
    in Egglog. *)

(* ------------------------------------------------------------------ *)
(* Constant utilities                                                  *)
(* ------------------------------------------------------------------ *)

(** If [v] is produced by a constant-like op, its value attribute. *)
let constant_value (v : Ir.value) : Attr.t option =
  match v.Ir.v_def with
  | Ir.Op_result (op, 0) when Dialect.is_constant_like op -> Ir.attr op "value"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Folding                                                             *)
(* ------------------------------------------------------------------ *)

(** Try to fold [op]; on success, rewrites uses and returns true.
    [root] is the enclosing op for use-replacement (usually the function). *)
let try_fold ~(root : Ir.op) (op : Ir.op) : bool =
  match Dialect.find op.Ir.op_name with
  | Some { d_fold = Some fold; _ } when Array.length op.Ir.results = 1 -> (
    let consts = Array.map constant_value op.Ir.operands in
    match fold op consts with
    | Dialect.No_fold -> false
    | Dialect.Fold_to_operand i ->
      Ir.replace_uses ~within:root ~from:op.Ir.results.(0) ~to_:op.Ir.operands.(i);
      true
    | Dialect.Fold_to_attr attr ->
      let c =
        Ir.create_op "arith.constant"
          ~attrs:[ ("value", attr) ]
          ~result_types:[ op.Ir.results.(0).Ir.v_type ]
      in
      Ir.insert_before ~anchor:op c;
      Ir.replace_uses ~within:root ~from:op.Ir.results.(0) ~to_:(Ir.result1 c);
      true)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)
(* ------------------------------------------------------------------ *)

(** Remove pure ops whose results are all unused.  Iterates until a fixed
    point so chains of dead ops disappear.  Regions of {e unregistered} ops
    are left untouched: an unknown op may give meaning to otherwise-unused
    values nested inside it.  Returns the number removed. *)
let dce (root : Ir.op) : int =
  Registry.ensure_registered ();
  (* walk like Ir.walk_op but do not collect candidates inside opaque ops *)
  let rec walk_known f (op : Ir.op) =
    f op;
    if Dialect.is_registered op.Ir.op_name then
      List.iter
        (fun (r : Ir.region) ->
          List.iter (fun (b : Ir.block) -> List.iter (walk_known f) b.Ir.blk_ops) r.Ir.blocks)
        op.Ir.regions
  in
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    (* count uses in one full walk (including opaque regions) *)
    let uses = Hashtbl.create 256 in
    Ir.walk_op
      (fun o ->
        Array.iter
          (fun (v : Ir.value) ->
            Hashtbl.replace uses v.Ir.v_id (1 + Option.value ~default:0 (Hashtbl.find_opt uses v.Ir.v_id)))
          o.Ir.operands)
      root;
    let dead = ref [] in
    walk_known
      (fun o ->
        if
          Dialect.is_pure o
          && Array.length o.Ir.results > 0
          && Array.for_all
               (fun (r : Ir.value) -> not (Hashtbl.mem uses r.Ir.v_id))
               o.Ir.results
        then dead := o :: !dead)
      root;
    List.iter
      (fun o ->
        Ir.erase_op o;
        incr removed;
        changed := true)
      !dead
  done;
  !removed

(* ------------------------------------------------------------------ *)
(* Common subexpression elimination                                    *)
(* ------------------------------------------------------------------ *)

(* An attribute as a key: floats by bit pattern.  Polymorphic equality
   holds for [0.0] and [-0.0], so keying the attribute itself would merge
   [arith.constant 0.0] with [arith.constant -0.0]. *)
type attr_key =
  | Float_bits of int64 * Typ.t
  | Dense_float_bits of int64 list * Typ.t
  | Array_key of attr_key list
  | Attr_key of Attr.t  (* holds no float *)

let rec attr_key : Attr.t -> attr_key = function
  | Attr.Float (f, ty) -> Float_bits (Int64.bits_of_float f, ty)
  | Attr.Dense_float (fs, ty) -> Dense_float_bits (List.map Int64.bits_of_float fs, ty)
  | Attr.Array l -> Array_key (List.map attr_key l)
  | a -> Attr_key a

(** Structural key of an op: name, operand ids, attributes, result types
    (two [tensor.empty()] ops of different shapes must not collide). *)
let op_key (op : Ir.op) =
  let operands = Array.to_list (Array.map (fun (v : Ir.value) -> v.Ir.v_id) op.Ir.operands) in
  let attrs = List.map (fun (name, a) -> (name, attr_key a)) op.Ir.attrs in
  let result_types = Array.to_list (Array.map (fun (v : Ir.value) -> v.Ir.v_type) op.Ir.results) in
  (op.Ir.op_name, operands, attrs, result_types)

(** CSE within each block (pure, region-free ops only).  Returns the number
    of ops removed. *)
let cse (root : Ir.op) : int =
  Registry.ensure_registered ();
  let removed = ref 0 in
  let rec do_block (b : Ir.block) =
    let seen = Hashtbl.create 32 in
    List.iter
      (fun (o : Ir.op) ->
        List.iter (fun (r : Ir.region) -> List.iter do_block r.Ir.blocks) o.Ir.regions;
        if Dialect.is_pure o && o.Ir.regions = [] && Array.length o.Ir.results = 1 then begin
          let key = op_key o in
          match Hashtbl.find_opt seen key with
          | Some (prev : Ir.op) ->
            Ir.replace_uses ~within:root ~from:o.Ir.results.(0) ~to_:prev.Ir.results.(0);
            Ir.erase_op o;
            incr removed
          | None -> Hashtbl.replace seen key o
        end)
      b.Ir.blk_ops
  in
  List.iter (fun (r : Ir.region) -> List.iter do_block r.Ir.blocks) root.Ir.regions;
  !removed

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

type stats = { mutable folds : int; mutable cse_removed : int; mutable dce_removed : int }

(** Run folding + CSE + DCE to a fixed point over [root] (typically a
    module or function).  Returns statistics. *)
let canonicalize (root : Ir.op) : stats =
  Registry.ensure_registered ();
  let stats = { folds = 0; cse_removed = 0; dce_removed = 0 } in
  let changed = ref true in
  let budget = ref 100 in
  while !changed && !budget > 0 do
    changed := false;
    decr budget;
    (* folding pass *)
    let folded = ref 0 in
    Ir.walk_op (fun o -> if try_fold ~root o then incr folded) root;
    stats.folds <- stats.folds + !folded;
    if !folded > 0 then changed := true;
    let c = cse root in
    stats.cse_removed <- stats.cse_removed + c;
    if c > 0 then changed := true;
    let d = dce root in
    stats.dce_removed <- stats.dce_removed + d;
    if d > 0 then changed := true
  done;
  stats
