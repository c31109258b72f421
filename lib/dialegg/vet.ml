(** Static ruleset verifier ([dialegg-check --only vet]):
    once-per-ruleset analyses that catch bad rules before saturation
    ever runs, complementing the per-extraction dynamic checks in
    {!Validate}.

    Three passes over a parsed ruleset, all reported as {!Egglog.Diag}
    diagnostics:

    {ol
    {- {b Soundness} (errors [rule-range-widened], [rule-shape-changed],
       [rule-type-changed]): each directed rule's left- and right-hand
       patterns are evaluated symbolically under the {!Mlir.Dataflow}
       domains ({!Mlir.Dataflow.Interval}, {!Mlir.Dataflow.Shape},
       {!Mlir.Dataflow.Constness}), with pattern variables mapped to the
       lattice's weakest fact.  Because both sides share one symbolic
       environment (a variable occurring on both sides is the same
       symbolic value), the RHS fact must refine the LHS fact for every
       instantiation — the same refinement order {!Validate} enforces
       dynamically, proven once statically.}
    {- {b Termination/expansion} (warning [expansive-cycle]): rules are
       classified contracting / size-preserving / expanding by term size,
       a dependency edge A→B is drawn when a term constructed by A's RHS
       unifies with B's LHS pattern, and every strongly-connected
       component containing a cycle through a non-contracting rule is
       reported — exactly the rules that make {!Pipeline} budgets
       load-bearing.}
    {- {b Overlap/shadowing} (warnings [rule-shadowed], [rule-overlap]):
       pairwise LHS comparison finds rules subsumed by a more general
       rule with the same effect, and identical-LHS-different-RHS
       critical pairs.}}

    The passes run over a {!Lint.checked} ruleset, the value lint and
    audit read too.  The report is one part of a ruleset's {!Verdict},
    memoized in-process and on disk, so batch and serve workloads vet a
    ruleset once, not once per function.

    Limitations (documented in DESIGN.md): guards ([:when] facts and rule
    facts beyond the matched pattern) are ignored by the soundness pass —
    they only ever narrow the LHS, so ignoring them can produce a false
    [rule-range-widened] on a rule that is sound {e only because} of its
    guard, never a false "sound".  Width-generic integer rules are
    evaluated at a representative [i64]. *)

module Ast = Egglog.Ast
module Check = Egglog.Check
module Diag = Egglog.Diag
module Pattern = Egglog.Pattern
module Sexp = Egglog.Sexp
module Dataflow = Mlir.Dataflow
module Ir = Mlir.Ir
module Typ = Mlir.Typ
module Attr = Mlir.Attr

let flex = Egglog.Primitives.is_primitive

(* ------------------------------------------------------------------ *)
(* Patterns as MLIR objects                                            *)
(* ------------------------------------------------------------------ *)

(* A fully ground type pattern; [None] as soon as a variable appears. *)
let rec typ_of_pattern (e : Ast.expr) : Typ.t option =
  match e with
  | Ast.Call ("I1", []) -> Some Typ.i1
  | Ast.Call ("I8", []) -> Some Typ.i8
  | Ast.Call ("I16", []) -> Some Typ.i16
  | Ast.Call ("I32", []) -> Some Typ.i32
  | Ast.Call ("I64", []) -> Some Typ.i64
  | Ast.Call ("IntegerType", [ Ast.Lit (Ast.L_i64 w) ]) -> Some (Typ.Integer (Int64.to_int w))
  | Ast.Call ("F16", []) -> Some Typ.f16
  | Ast.Call ("F32", []) -> Some Typ.f32
  | Ast.Call ("F64", []) -> Some Typ.f64
  | Ast.Call ("IndexT", []) -> Some Typ.index
  | Ast.Call ("NoneType", []) -> Some Typ.None_type
  | Ast.Call ("ComplexType", [ elem ]) ->
    Option.map (fun t -> Typ.Complex t) (typ_of_pattern elem)
  | Ast.Call ("UnrankedTensor", [ elem ]) ->
    Option.map (fun t -> Typ.Unranked_tensor t) (typ_of_pattern elem)
  | Ast.Call ("RankedTensor", [ dims; elem ]) -> (
    match (dims_of_pattern ~exact:true dims, typ_of_pattern elem) with
    | Some ds, Some t -> Some (Typ.Ranked_tensor (ds, t))
    | _ -> None)
  | Ast.Call ("MemRefType", [ dims; elem ]) -> (
    match (dims_of_pattern ~exact:true dims, typ_of_pattern elem) with
    | Some ds, Some t -> Some (Typ.Memref (ds, t))
    | _ -> None)
  | _ -> None

and dims_of_pattern ~exact (e : Ast.expr) : int list option =
  match e with
  | Ast.Call ("vec-of", args) ->
    let dim = function
      | Ast.Lit (Ast.L_i64 d) -> Some (Int64.to_int d)
      | _ -> if exact then None else Some (-1)
    in
    List.fold_right
      (fun a acc ->
        match (dim a, acc) with Some d, Some ds -> Some (d :: ds) | _ -> None)
      args (Some [])
  | _ -> None

(* Best-effort type for building a symbolic value: unknown dimensions
   become dynamic [-1]s and an unknown element type defaults to f64, so
   the {!Dataflow.Shape} domain still sees the pattern's known rank. *)
let typ_hint_of_pattern (e : Ast.expr) : Typ.t option =
  match typ_of_pattern e with
  | Some t -> Some t
  | None -> (
    match e with
    | Ast.Call ("RankedTensor", [ dims; elem ]) -> (
      match dims_of_pattern ~exact:false dims with
      | Some ds ->
        Some (Typ.Ranked_tensor (ds, Option.value (typ_of_pattern elem) ~default:Typ.f64))
      | None -> None)
    | Ast.Call ("UnrankedTensor", _) -> Some (Typ.Unranked_tensor Typ.f64)
    | _ -> None)

(* A ground attribute pattern as a named MLIR attribute; [None] (attr
   simply omitted from the symbolic op) when a variable is involved. *)
let attr_of_pattern (e : Ast.expr) : Attr.named option =
  match e with
  | Ast.Call ("NamedAttr", [ Ast.Lit (Ast.L_string name); value ]) -> (
    match value with
    | Ast.Call ("IntegerAttr", [ Ast.Lit (Ast.L_i64 v); tp ]) ->
      Some (name, Attr.Int (v, Option.value (typ_of_pattern tp) ~default:Typ.i64))
    | Ast.Call ("FloatAttr", [ Ast.Lit (Ast.L_f64 v); tp ]) ->
      Some (name, Attr.Float (v, Option.value (typ_of_pattern tp) ~default:Typ.f64))
    | Ast.Call ("StringAttr", [ Ast.Lit (Ast.L_string s) ]) -> Some (name, Attr.String s)
    | Ast.Call ("BoolAttr", [ Ast.Lit (Ast.L_bool b) ]) -> Some (name, Attr.Bool b)
    | Ast.Call ("SymbolRefAttr", [ Ast.Lit (Ast.L_string s) ]) ->
      Some (name, Attr.Symbol_ref s)
    | Ast.Call ("UnitAttr", []) -> Some (name, Attr.Unit)
    | Ast.Call ("arith_fastmath", [ Ast.Call (flag, []) ]) ->
      let fm =
        match flag with
        | "none" -> Attr.Fm_none
        | "fast" -> Attr.Fm_fast
        | f -> Attr.Fm_flags [ f ]
      in
      Some (name, Attr.Fastmath fm)
    | _ -> None)
  | _ -> None

type arg_kind = K_operand | K_attr | K_region | K_type | K_other

let kind_of_sort = function
  | "Op" -> K_operand
  | "AttrPair" -> K_attr
  | "Region" -> K_region
  | "Type" -> K_type
  | _ -> K_other

(* Argument sorts of an MLIR op constructor ([fs_ret = Op], not the
   [Value] leaf), per {!Sigs}'s convention. *)
let op_constructor env f : string list option =
  if flex f || String.equal f "Value" then None
  else
    match Check.find_func env f with
    | Some fs when String.equal fs.Check.fs_ret "Op" -> Some fs.Check.fs_args
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Symbolic evaluation of patterns under a dataflow domain             *)
(* ------------------------------------------------------------------ *)

module Eval (L : Dataflow.LATTICE) = struct
  module S = Dataflow.Symbolic (L)

  type ctx = {
    env : Check.env;
    terms : (Ast.expr, Ir.value) Hashtbl.t;  (** structural memo: shared subterms share values *)
    facts : (int, L.t) Hashtbl.t;  (** value id -> fact *)
  }

  let create env = { env; terms = Hashtbl.create 32; facts = Hashtbl.create 32 }

  let get ctx (v : Ir.value) =
    match Hashtbl.find_opt ctx.facts v.Ir.v_id with
    | Some f -> f
    | None -> S.top_of v.Ir.v_type

  (* a pattern variable / unknown term: a detached value of unknown type *)
  let leaf ctx =
    let op = Ir.create_op ~result_types:[ S.placeholder ] "sym.value" in
    let v = Ir.result1 op in
    Hashtbl.replace ctx.facts v.Ir.v_id S.unknown;
    v

  (* Result type when the pattern leaves it open: width-generic rules on
     scalar-compute dialects are evaluated at a representative i64 so the
     integer domains engage; anything else stays fully unknown. *)
  let default_result_type f =
    let prefixed p =
      String.length f > String.length p && String.equal (String.sub f 0 (String.length p)) p
    in
    if prefixed "arith_" || prefixed "math_" then Typ.i64 else S.placeholder

  let rec eval ctx (e : Ast.expr) : Ir.value =
    match Hashtbl.find_opt ctx.terms e with
    | Some v -> v
    | None ->
      let v = eval_new ctx e in
      Hashtbl.replace ctx.terms e v;
      v

  and eval_new ctx (e : Ast.expr) : Ir.value =
    match e with
    | Ast.Call (f, args) -> (
      match op_constructor ctx.env f with
      | Some arg_sorts when List.length arg_sorts = List.length args ->
        let pairs = List.map2 (fun a s -> (a, kind_of_sort s)) args arg_sorts in
        let operands =
          List.filter_map (fun (a, k) -> if k = K_operand then Some (eval ctx a) else None) pairs
        in
        let attrs =
          List.filter_map (fun (a, k) -> if k = K_attr then attr_of_pattern a else None) pairs
        in
        let type_pat =
          List.fold_left (fun acc (a, k) -> if k = K_type then Some a else acc) None pairs
        in
        let rty =
          match Option.bind type_pat typ_hint_of_pattern with
          | Some t -> t
          | None -> default_result_type f
        in
        let op =
          Ir.create_op ~operands ~result_types:[ rty ] ~attrs (Sigs.mlir_name_of_egg f)
        in
        let v = Ir.result1 op in
        let fact = match S.eval ~get:(get ctx) op with [ fct ] -> fct | _ -> S.unknown in
        Hashtbl.replace ctx.facts v.Ir.v_id fact;
        v
      | _ -> leaf ctx)
    | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> leaf ctx

  let fact_of ctx (e : Ast.expr) : L.t = get ctx (eval ctx e)
end

module Eval_interval = Eval (Dataflow.Interval)
module Eval_shape = Eval (Dataflow.Shape)
module Eval_const = Eval (Dataflow.Constness)

(* ------------------------------------------------------------------ *)
(* Directed rules                                                      *)
(* ------------------------------------------------------------------ *)

(* The directed-rule model the passes run on, built once per checked
   ruleset ({!Lint.checked}). *)
type directed = Lint.directed = {
  d_name : string;
  d_span : Sexp.span;
  d_lhs : Ast.expr;
  d_rhs : Ast.expr;
  d_conds : Ast.expr list;
  d_pure : bool;
}

(* ------------------------------------------------------------------ *)
(* Pass 1: soundness                                                   *)
(* ------------------------------------------------------------------ *)

type classification = Contracting | Size_preserving | Expanding

let classification_name = function
  | Contracting -> "contracting"
  | Size_preserving -> "size-preserving"
  | Expanding -> "expanding"

type rule_info = {
  vr_name : string;
  vr_line : int;
  vr_class : classification;
  vr_interval : (Dataflow.Interval.t * Dataflow.Interval.t) option;  (** lhs, rhs *)
  vr_shape : (Dataflow.Shape.t * Dataflow.Shape.t) option;
  vr_const : (Dataflow.Constness.t * Dataflow.Constness.t) option;
  vr_sound : bool;  (** no soundness error on this rule *)
}

(* The declared result type of an op-constructor pattern, if fully
   ground: the last [Type]-sorted argument. *)
let root_type env (e : Ast.expr) : Typ.t option =
  match e with
  | Ast.Call (f, args) -> (
    match op_constructor env f with
    | Some sorts when List.length sorts = List.length args ->
      List.fold_left2
        (fun acc a s -> if kind_of_sort s = K_type then typ_of_pattern a else acc)
        None args sorts
    | _ -> None)
  | _ -> None

let soundness ?file env (d : directed) :
    Diag.t list
    * (Dataflow.Interval.t * Dataflow.Interval.t) option
    * (Dataflow.Shape.t * Dataflow.Shape.t) option
    * (Dataflow.Constness.t * Dataflow.Constness.t) option =
  let analyzable =
    match d.d_lhs with Ast.Call (f, _) -> op_constructor env f <> None | _ -> false
  in
  if not analyzable then ([], None, None, None)
  else begin
    let diags = ref [] in
    let err code fmt =
      Fmt.kstr
        (fun m ->
          diags :=
            Diag.make ?file ~span:d.d_span Diag.Error code
              (Printf.sprintf "rule %s: %s" d.d_name m)
            :: !diags)
        fmt
    in
    let iv_ctx = Eval_interval.create env in
    let l_iv = Eval_interval.fact_of iv_ctx d.d_lhs in
    let r_iv = Eval_interval.fact_of iv_ctx d.d_rhs in
    let sh_ctx = Eval_shape.create env in
    let l_sh = Eval_shape.fact_of sh_ctx d.d_lhs in
    let r_sh = Eval_shape.fact_of sh_ctx d.d_rhs in
    let cn_ctx = Eval_const.create env in
    let l_cn = Eval_const.fact_of cn_ctx d.d_lhs in
    let r_cn = Eval_const.fact_of cn_ctx d.d_rhs in
    (match (root_type env d.d_lhs, root_type env d.d_rhs) with
    | Some a, Some b when not (Typ.equal a b) ->
      err "rule-type-changed" "result type changes from %a to %a" Typ.pp a Typ.pp b
    | _ -> ());
    if not (Dataflow.Shape.compatible l_sh r_sh) then
      err "rule-shape-changed" "result shape %a is incompatible with %a" Dataflow.Shape.pp
        l_sh Dataflow.Shape.pp r_sh;
    if not (Dataflow.Interval.subset r_iv l_iv) then
      err "rule-range-widened"
        "right-hand side range %a is not contained in left-hand side range %a — the rule \
         can replace a value with a different one"
        Dataflow.Interval.pp r_iv Dataflow.Interval.pp l_iv
    else begin
      (* definite-constant disagreement (catches the float cases the
         integer intervals cannot see) *)
      match (l_cn, r_cn) with
      | ( Dataflow.Constness.(Cint _ | Cfloat _),
          Dataflow.Constness.(Cint _ | Cfloat _) )
        when not (Dataflow.Constness.equal l_cn r_cn) ->
        err "rule-range-widened" "constant value changes from %a to %a"
          Dataflow.Constness.pp l_cn Dataflow.Constness.pp r_cn
      | _ -> ()
    end;
    (List.rev !diags, Some (l_iv, r_iv), Some (l_sh, r_sh), Some (l_cn, r_cn))
  end

(* ------------------------------------------------------------------ *)
(* Pass 2: termination / expansion                                     *)
(* ------------------------------------------------------------------ *)

let classify (d : directed) : classification =
  match d.d_rhs with
  | Ast.Var _ | Ast.Wildcard -> Contracting
  | rhs when Pattern.is_subterm ~sub:rhs d.d_lhs -> Contracting
  | rhs ->
    let sl = Pattern.size d.d_lhs and sr = Pattern.size rhs in
    if sr < sl then Contracting else if sr > sl then Expanding else Size_preserving

(* Dependency edges: i -> j when a term constructed by rule i's RHS (any
   non-primitive application subterm) unifies with rule j's LHS pattern
   or one of its fact patterns.  Variables are renamed apart; primitive
   applications are flexible (they can evaluate to anything). *)
let edges (rules : directed array) : int list array =
  let n = Array.length rules in
  let succ = Array.make n [] in
  let rhs_terms =
    Array.map
      (fun r ->
        List.filter
          (function Ast.Call (f, _) -> not (flex f) | _ -> false)
          (Pattern.subterms (Pattern.rename ~suffix:"!l" r.d_rhs)))
      rules
  in
  let lhs_pats =
    Array.map
      (fun r ->
        List.filter_map
          (function
            | Ast.Call (f, _) as p when not (flex f) ->
              Some (Pattern.rename ~suffix:"!r" p)
            | _ -> None)
          (r.d_lhs :: r.d_conds))
      rules
  in
  for i = 0 to n - 1 do
    for j = n - 1 downto 0 do
      if
        List.exists
          (fun t -> List.exists (fun s -> Pattern.unifiable ~flex s t) rhs_terms.(i))
          lhs_pats.(j)
      then succ.(i) <- j :: succ.(i)
    done
  done;
  succ

let sccs (n : int) (succ : int list array) : int list list =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comps = ref [] in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succ.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      comps := pop [] :: !comps
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  List.rev !comps

let expansion_diags ?file (rules : directed array) (classes : classification array) :
    Diag.t list =
  let succ = edges rules in
  List.filter_map
    (fun comp ->
      let cyclic =
        match comp with [ v ] -> List.mem v succ.(v) | _ -> List.length comp > 1
      in
      let grows = List.exists (fun v -> classes.(v) <> Contracting) comp in
      if cyclic && grows then
        let names =
          String.concat " -> "
            (List.map
               (fun v ->
                 Printf.sprintf "%s (%s)" rules.(v).d_name
                   (classification_name classes.(v)))
               comp)
        in
        Some
          (Diag.make ?file ~span:rules.(List.hd comp).d_span Diag.Warning "expansive-cycle"
             (Printf.sprintf
                "rules can keep feeding each other new terms, so saturation relies on \
                 budgets to terminate: %s"
                names))
      else None)
    (sccs (Array.length rules) succ)

(* ------------------------------------------------------------------ *)
(* Pass 3: overlap / shadowing                                         *)
(* ------------------------------------------------------------------ *)

let overlap_diags ?file (rules : directed array) : Diag.t list =
  let diags = ref [] in
  let warn (d : directed) code fmt =
    Fmt.kstr
      (fun m -> diags := Diag.make ?file ~span:d.d_span Diag.Warning code m :: !diags)
      fmt
  in
  let n = Array.length rules in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i < j then begin
        let a = rules.(i) and b = rules.(j) in
        if a.d_pure && b.d_pure then begin
          match Pattern.alpha_bijection a.d_lhs b.d_lhs with
          | Some ren ->
            if Pattern.equal (Pattern.apply ren a.d_rhs) b.d_rhs then
              warn b "rule-shadowed" "rule %s is a duplicate of rule %s" b.d_name a.d_name
            else
              warn b "rule-overlap"
                "rules %s and %s match the same terms but produce different right-hand \
                 sides (a critical pair)"
                a.d_name b.d_name
          | None ->
            let subsumes (g : directed) (s : directed) =
              match Pattern.match_pattern ~general:g.d_lhs s.d_lhs with
              | Some subst -> Pattern.equal (Pattern.apply subst g.d_rhs) s.d_rhs
              | None -> false
            in
            if subsumes a b then
              warn b "rule-shadowed"
                "rule %s is subsumed by the more general rule %s (same effect on every \
                 term it matches)"
                b.d_name a.d_name
            else if subsumes b a then
              warn a "rule-shadowed"
                "rule %s is subsumed by the more general rule %s (same effect on every \
                 term it matches)"
                a.d_name b.d_name
        end
      end
    done
  done;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

type report = {
  v_file : string option;
  v_rules : rule_info list;
  v_diags : Diag.t list;
}

let vet_checked (c : Lint.checked) : report =
  let file = c.Lint.c_file in
  if Diag.has_errors c.Lint.c_diags then
    (* a program the sort-checker rejects cannot be analyzed; surface the
       errors so a standalone vet still fails usefully *)
    {
      v_file = file;
      v_rules = [];
      v_diags = List.filter Diag.is_error c.Lint.c_diags;
    }
  else begin
    let env = c.Lint.c_env in
    let rules = Array.of_list (Lazy.force c.Lint.c_directed) in
    let classes = Array.map classify rules in
    let sound_diags = ref [] in
    let infos =
      Array.to_list
        (Array.mapi
           (fun i (d : directed) ->
             let diags, iv, sh, cn = soundness ?file env d in
             sound_diags := !sound_diags @ diags;
             {
               vr_name = d.d_name;
               vr_line = d.d_span.Sexp.sp_start.Sexp.line;
               vr_class = classes.(i);
               vr_interval = iv;
               vr_shape = sh;
               vr_const = cn;
               vr_sound = diags = [];
             })
           rules)
    in
    let diags =
      Diag.dedup (!sound_diags @ expansion_diags ?file rules classes @ overlap_diags ?file rules)
    in
    { v_file = file; v_rules = infos; v_diags = diags }
  end

let vet ?file (src : string) : report = vet_checked (Lint.check ?file src)

type cache_status = Disk_cache.status = Hit_memory | Hit_disk | Computed

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_classification ppf (r : report) =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (ri : rule_info) ->
      Fmt.pf ppf "%-44s %-15s %s" ri.vr_name (classification_name ri.vr_class)
        (if ri.vr_sound then "sound" else "UNSOUND");
      (match ri.vr_interval with
      | Some (l, rr) when not (Dataflow.Interval.equal l rr) ->
        Fmt.pf ppf "  %a -> %a" Dataflow.Interval.pp l Dataflow.Interval.pp rr
      | _ -> ());
      Fmt.cut ppf ())
    r.v_rules;
  Fmt.pf ppf "@]"

let pp_summary ppf (r : report) =
  let count c = List.length (List.filter (fun ri -> ri.vr_class = c) r.v_rules) in
  Fmt.pf ppf "vet: %d rule(s) (%d contracting, %d size-preserving, %d expanding), %d error(s), %d warning(s)"
    (List.length r.v_rules) (count Contracting) (count Size_preserving) (count Expanding)
    (Diag.count_errors r.v_diags)
    (Diag.count_warnings r.v_diags)
