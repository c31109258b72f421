(** Dialect registry: operation definitions, traits, verifiers and folders.

    Each dialect registers its operations here.  The registry drives the
    verifier (arity/type checks), the canonicalizer (folders and rewrite
    patterns), the parser (which consults expected structure for pretty
    forms), and the cross-layer encoding auditor (which checks egg
    constructor signatures against these specs). *)

type trait =
  | Pure  (** no side effects; eligible for CSE/DCE *)
  | Commutative
  | Terminator
  | Constant_like

(** Coarse classification of an op's result type, used by the encoding
    auditor to check the sorts eggify assigns against the registry.  An
    op may admit several classes (e.g. arith int ops produce integers or
    index values); the empty list means "unconstrained". *)
type type_class =
  | Int_like  (** iN / IntegerType *)
  | Float_like  (** f16 / f32 / f64 *)
  | Index_like  (** index *)
  | Shaped  (** tensor / memref *)

(** Memory effects of a non-[Pure] op.  [Call] marks ops whose only
    effect is transferring control to a callee; rewrite rules may still
    mention them (the callee's effects are the callee's problem), unlike
    ops that directly read or mutate memory. *)
type effect_kind = Read | Write | Alloc | Free | Call

type fold_result =
  | No_fold
  | Fold_to_attr of Attr.t  (** op folds to a constant with this value attr *)
  | Fold_to_operand of int  (** op folds to its nth operand *)

type op_def = {
  d_name : string;  (** full op name, e.g. "arith.addi" *)
  d_n_operands : int option;  (** [None] = variadic *)
  d_n_results : int option;  (** [None] = variadic / signature-dependent *)
  d_n_regions : int;
  d_traits : trait list;
  d_result_class : type_class list;  (** [[]] = unconstrained *)
  d_effects : effect_kind list;  (** meaningful only without [Pure] *)
  d_verify : (Ir.op -> (unit, string) result) option;
  d_fold : (Ir.op -> Attr.t option array -> fold_result) option;
      (** called with the constant value of each operand where known *)
}

let registry : (string, op_def) Hashtbl.t = Hashtbl.create 128

(* {!fingerprint}'s digest of the registry as it stands; {!def}, the
   registry's only writer, drops it. *)
let fingerprint_cache : string option ref = ref None

let def ?n_operands ?n_results ?(n_regions = 0) ?(traits = [])
    ?(result_class = []) ?(effects = []) ?verify ?fold name =
  let d =
    {
      d_name = name;
      d_n_operands = n_operands;
      d_n_results = n_results;
      d_n_regions = n_regions;
      d_traits = traits;
      d_result_class = result_class;
      d_effects = effects;
      d_verify = verify;
      d_fold = fold;
    }
  in
  Hashtbl.replace registry name d;
  fingerprint_cache := None

(** Definition of an op name, if registered. *)
let find name = Hashtbl.find_opt registry name

let is_registered name = Hashtbl.mem registry name

let has_trait name t =
  match find name with Some d -> List.mem t d.d_traits | None -> false

(** Is this op free of side effects?  Unregistered ops are conservatively
    treated as effectful. *)
let is_pure (op : Ir.op) = has_trait op.Ir.op_name Pure

let is_terminator (op : Ir.op) = has_trait op.Ir.op_name Terminator
let is_commutative (op : Ir.op) = has_trait op.Ir.op_name Commutative
let is_constant_like (op : Ir.op) = has_trait op.Ir.op_name Constant_like

(** All registered op names, sorted. *)
let all_ops () =
  Hashtbl.fold (fun name _ acc -> name :: acc) registry [] |> List.sort String.compare

let iter f =
  List.iter (fun name -> f (Hashtbl.find registry name)) (all_ops ())

let trait_name = function
  | Pure -> "pure"
  | Commutative -> "commutative"
  | Terminator -> "terminator"
  | Constant_like -> "constant-like"

let type_class_name = function
  | Int_like -> "int"
  | Float_like -> "float"
  | Index_like -> "index"
  | Shaped -> "shaped"

let effect_name = function
  | Read -> "read"
  | Write -> "write"
  | Alloc -> "alloc"
  | Free -> "free"
  | Call -> "call"

(* A digest of every registered op spec (names, arities, traits, result
   classes, effects — everything the encoding auditor consults).  Cached
   audit verdicts key on this so registering, removing or editing an op
   definition invalidates them.  Verify/fold closures are not hashable
   and not part of the contract the auditor checks, so they are ignored.
   Computed once per registry state. *)
let compute_fingerprint () =
  let buf = Buffer.create 1024 in
  iter (fun d ->
      Buffer.add_string buf d.d_name;
      Buffer.add_char buf ' ';
      let opt = function None -> "?" | Some n -> string_of_int n in
      Buffer.add_string buf (opt d.d_n_operands);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (opt d.d_n_results);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int d.d_n_regions);
      List.iter (fun t -> Buffer.add_string buf (" " ^ trait_name t)) d.d_traits;
      List.iter
        (fun c -> Buffer.add_string buf (" :" ^ type_class_name c))
        d.d_result_class;
      List.iter (fun e -> Buffer.add_string buf (" !" ^ effect_name e)) d.d_effects;
      Buffer.add_char buf '\n');
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint () =
  match !fingerprint_cache with
  | Some fp -> fp
  | None ->
    let fp = compute_fingerprint () in
    fingerprint_cache := Some fp;
    fp
