(** Cross-layer encoding-contract auditor ([dialegg-check --only audit]).

    DialEgg's dialect-agnostic promise rests on a contract between three
    worlds that nothing else checks end-to-end: the egg side (op
    constructors and costs in the prelude plus the user's ruleset), the
    MLIR side (the {!Mlir.Dialect} registry: arities, result counts,
    regions, traits, effects), and the extraction cost model.  This
    module builds a typed signature model of both worlds once per
    (ruleset, registry) pair and cross-checks them statically, so a bad
    configuration is rejected before any saturation runs — the third
    fail-fast tier after the sort checker ({!Egglog.Check}/{!Lint}) and
    the intra-ruleset verifier ({!Vet}).

    Four analyses:

    - {b Coverage/arity} — every egg op constructor must map to a
      registered MLIR op with consistent operand/region arity and a
      consistent result encoding (trailing [Type] iff exactly one
      result): errors [egg-arity-mismatch] / [egg-results-mismatch];
      constructors for unregistered ops get warning [egg-op-unknown]
      (custom dialects are legal, the translation handles them opaquely,
      but none of the registry-backed checks can see them).  Reverse
      direction: a registered fixed-arity single-result [Pure] op of an
      encoded dialect with no egg constructor gets warning
      [mlir-op-unencoded] (eggify will treat it opaquely and rules can
      never see through it).
    - {b Sort soundness} — where a rule pins an op constructor's
      trailing [Type] argument to a concrete type head, that type's
      class must refine the registered op's result class (e.g.
      [arith_addf] with an [I64] result sort): error [egg-sort-mismatch].
    - {b Extraction totality} — a reachability fixpoint over the rule
      dependency graph proves that every [Op] constructor any fireable
      rule can introduce carries a cost model ([:cost] or an
      [unstable-cost] rule), so extraction can never silently price a
      reachable node at the default: error [cost-unreachable].
    - {b Effect/purity} — rules mentioning ops without the [Pure] trait
      are rejected (error [rule-impure-op]): saturation may duplicate,
      share or delete matched subterms, which is unsound for ops that
      read or mutate memory.  Ops whose only declared effect is [Call]
      are exempt (outlining a subterm into a named callee is the
      paper's own fast-inv-sqrt example), as are unregistered ops
      (already covered by [egg-op-unknown]).

    The audit is a pass over a {!Lint.checked} ruleset, the value lint
    and vet read too, so the pipeline parses and sort-checks a ruleset
    once for all three tiers; it takes the cost targets and declaration
    sites lint derives from the same value.  What the prelude alone
    determines (its emittable heads, cost targets and rules'
    reachability, the registry checks of its op constructors, the
    reverse-coverage candidates) is computed once per registry
    fingerprint; each audit adds the ruleset's own declarations, cost
    targets, lets and rules and resumes the reachability fixpoint from
    the prelude's state.

    The report is one part of a ruleset's {!Verdict}, whose key folds in
    the registry fingerprint, so editing an op definition invalidates
    every cached verdict. *)

module Ast = Egglog.Ast
module Check = Egglog.Check
module Diag = Egglog.Diag
module Dialect = Mlir.Dialect

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(** Where an op constructor's extraction cost comes from. *)
type cost_model =
  | Cost_static of int  (** a [:cost] annotation *)
  | Cost_rule  (** an [unstable-cost] rule targets it *)
  | Cost_default  (** nothing: extraction prices it at 1 *)

(** Per-constructor verdict of the coverage analysis. *)
type op_check = {
  a_egg : string;  (** egg constructor name *)
  a_mlir : string;  (** MLIR op it encodes *)
  a_registered : bool;
  a_cost : cost_model;
  a_reachable : bool;  (** some fireable rule or global action introduces it *)
}

type report = {
  a_file : string option;
  a_ops : op_check list;  (** every op constructor in scope, sorted *)
  a_rules : int;  (** directed rules audited *)
  a_diags : Diag.t list;
}

(* ------------------------------------------------------------------ *)
(* Signature model of the egg side                                     *)
(* ------------------------------------------------------------------ *)

type egg_sig = { s_operands : int; s_regions : int; s_has_type : bool }

let decompose (args : string list) : egg_sig =
  List.fold_left
    (fun acc s ->
      match Vet.kind_of_sort s with
      | Vet.K_operand -> { acc with s_operands = acc.s_operands + 1 }
      | Vet.K_region -> { acc with s_regions = acc.s_regions + 1 }
      | Vet.K_type -> { acc with s_has_type = true }
      | Vet.K_attr | Vet.K_other -> acc)
    { s_operands = 0; s_regions = 0; s_has_type = false }
    args

let dialect_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Type class of a ground-enough type pattern head; [None] when the
   pattern does not determine the class (variables, lets, opaque). *)
let class_of_type_pattern (e : Ast.expr) : Dialect.type_class option =
  match e with
  | Ast.Call (("I1" | "I8" | "I16" | "I32" | "I64" | "IntegerType"), _) ->
    Some Dialect.Int_like
  | Ast.Call (("F16" | "F32" | "F64"), _) -> Some Dialect.Float_like
  | Ast.Call ("IndexT", _) -> Some Dialect.Index_like
  | Ast.Call (("RankedTensor" | "UnrankedTensor" | "MemRefType"), _) ->
    Some Dialect.Shaped
  | _ -> None

let heads_of es =
  let acc = Hashtbl.create 8 in
  List.iter (Lint.call_heads acc) es;
  Hashtbl.fold (fun f () l -> f :: l) acc []

let rec iter_subterms f (e : Ast.expr) =
  f e;
  match e with
  | Ast.Call (_, args) -> List.iter (iter_subterms f) args
  | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-command facts                                                   *)
(* ------------------------------------------------------------------ *)

let action_outputs (a : Ast.action) =
  match a with
  | Ast.A_let (_, e) | Ast.A_expr e -> heads_of [ e ]
  | Ast.A_union (x, y) | Ast.A_set (x, y) -> heads_of [ x; y ]
  | Ast.A_cost _ | Ast.A_delete _ | Ast.A_panic _ -> []

(* global lets and top-level actions put their terms in the e-graph
   unconditionally *)
let mark_globals mark cmds =
  List.iter
    (fun ((cmd : Ast.command), _) ->
      match cmd with
      | Ast.C_let (_, e) -> List.iter mark (heads_of [ e ])
      | Ast.C_action a -> List.iter mark (action_outputs a)
      | _ -> ())
    cmds

(* (triggers, outputs) per rule; a rule fires only if every
   non-primitive head of its patterns is matchable *)
let rule_deps cmds =
  List.concat_map
    (fun ((cmd : Ast.command), _) ->
      match cmd with
      | Ast.C_rewrite { lhs; rhs; conds; bidirectional; _ } ->
        let cond_es = List.concat_map Lint.fact_exprs conds in
        let fwd = (heads_of (lhs :: cond_es), heads_of [ rhs ]) in
        if bidirectional then [ fwd; (heads_of (rhs :: cond_es), heads_of [ lhs ]) ]
        else [ fwd ]
      | Ast.C_rule { facts; actions; _ } ->
        [ (heads_of (List.concat_map Lint.fact_exprs facts), List.concat_map action_outputs actions) ]
      | _ -> [])
    cmds

(* The reachability fixpoint: fire every rule whose triggers are all
   matchable, marking its outputs, until nothing changes.  Returns the
   rules that never fired, so a later fixpoint can resume from here. *)
let saturate ~matchable ~mark rules =
  let rules = Array.of_list rules in
  let fired = Array.make (Array.length rules) false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i (triggers, outputs) ->
        if (not fired.(i)) && List.for_all matchable triggers then begin
          fired.(i) <- true;
          changed := true;
          List.iter mark outputs
        end)
      rules
  done;
  List.filteri (fun i _ -> not fired.(i)) (Array.to_list rules)

let is_op name (fs : Check.fsig) =
  String.equal fs.Check.fs_ret "Op" && not (String.equal name "Value")

(* What the registry says about one op constructor, independent of any
   ruleset: its shape error, or the MLIR op it encodes, whether that is
   registered, and the coverage/arity findings (severity, code,
   message), in report order. *)
type verdict =
  | Bad_shape of string
  | Encodes of {
      mlir : string;
      registered : bool;
      findings : (Diag.severity * string * string) list;
    }

let verdict name (fs : Check.fsig) : verdict =
  match Lint.op_shape_error name fs.Check.fs_args with
  | Some msg -> Bad_shape msg
  | None ->
    let s = decompose fs.Check.fs_args in
    let mlir = Sigs.mlir_name_of_egg name in
    let findings = ref [] in
    let add severity code fmt =
      Printf.ksprintf (fun m -> findings := (severity, code, m) :: !findings) fmt
    in
    let registered =
      match Dialect.find mlir with
      | None ->
        add Diag.Warning "egg-op-unknown"
          "egg constructor %s maps to MLIR op %s, which is not in the dialect registry: the \
           verifier, sort and effect audits cannot check it"
          name mlir;
        false
      | Some d ->
        (match d.Dialect.d_n_operands with
        | Some n when n <> s.s_operands ->
          add Diag.Error "egg-arity-mismatch"
            "egg constructor %s declares %d operand parameter(s) but %s takes %d operand(s)"
            name s.s_operands mlir n
        | _ -> ());
        if d.Dialect.d_n_regions <> s.s_regions then
          add Diag.Error "egg-arity-mismatch"
            "egg constructor %s declares %d region parameter(s) but %s has %d region(s)" name
            s.s_regions mlir d.Dialect.d_n_regions;
        (match d.Dialect.d_n_results with
        | Some 1 when not s.s_has_type ->
          add Diag.Error "egg-results-mismatch"
            "%s has exactly one result, so egg constructor %s needs a trailing Type parameter"
            mlir name
        | Some 0 when s.s_has_type ->
          add Diag.Error "egg-results-mismatch"
            "%s has no results, so egg constructor %s must not have a trailing Type parameter"
            mlir name
        | Some n when n > 1 ->
          add Diag.Error "egg-results-mismatch"
            "%s has %d results; the encoding only supports 0 (no trailing Type) or 1 (trailing \
             Type)"
            mlir n
        | _ -> ());
        true
    in
    Encodes { mlir; registered; findings = List.rev !findings }

let sort_by_name ops = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) ops

(* record the MLIR ops these constructors encode, and the dialects of
   the registered ones *)
let note_encodings ~have_constructor ~encoded ops =
  List.iter
    (function
      | _, _, Encodes { mlir; registered; _ } ->
        Hashtbl.replace have_constructor mlir ();
        if registered then Hashtbl.replace encoded (dialect_of mlir) ()
      | _, _, Bad_shape _ -> ())
    ops

(* ------------------------------------------------------------------ *)
(* The prelude's share, once per registry fingerprint                  *)
(* ------------------------------------------------------------------ *)

(* Everything the audit derives from the prelude alone.  Each ruleset
   adds its own declarations, cost targets, global lets and rules on top
   and resumes the reachability fixpoint from [pm_pending]; since the
   fixpoint is monotone its least solution is the one a single pass over
   prelude and ruleset together reaches. *)
type prelude_model = {
  pm_fingerprint : string;  (** the registry state it was computed under *)
  pm_ops : (string * Check.fsig * verdict) list;  (** op constructors, sorted *)
  pm_cost_targets : (string, unit) Hashtbl.t;
  pm_matchable : (string, unit) Hashtbl.t;
  pm_introduced : (string, unit) Hashtbl.t;
  pm_pending : (string list * string list) list;  (** rules not yet fired *)
  pm_encoded : (string, unit) Hashtbl.t;  (** dialects of registered constructors *)
  pm_unencoded : (string * string) list;
      (** registered ops the reverse coverage could flag that no prelude
          constructor encodes, with their dialect, in registry order *)
}

let build_prelude_model fingerprint : prelude_model =
  let p = Lazy.force Lint.prelude in
  let env = p.Lint.c_env and cmds = Option.value p.Lint.c_cmds ~default:[] in
  (* matchable: heads a pattern can ever match (eggify output, hook
     output, or anything a fireable rule introduces).  [type-of] is
     populated by {!Sigs.type_of_rules}, generated per run. *)
  let matchable = Hashtbl.create 128 in
  let introduced = Hashtbl.create 16 in
  Check.iter_funcs env (fun name _ ->
      if Lint.emittable env name then Hashtbl.replace matchable name ());
  Hashtbl.replace matchable "type-of" ();
  let mark h =
    Hashtbl.replace matchable h ();
    Hashtbl.replace introduced h ()
  in
  mark_globals mark cmds;
  let pending = saturate ~matchable:(Hashtbl.mem matchable) ~mark (rule_deps cmds) in
  let ops = ref [] in
  Check.iter_funcs env (fun name fs ->
      if is_op name fs then ops := (name, fs, verdict name fs) :: !ops);
  let ops = sort_by_name !ops in
  let encoded = Hashtbl.create 8 in
  let have_constructor = Hashtbl.create 64 in
  note_encodings ~have_constructor ~encoded ops;
  let unencoded = ref [] in
  Dialect.iter (fun d ->
      let name = d.Dialect.d_name in
      if
        List.mem Dialect.Pure d.Dialect.d_traits
        && d.Dialect.d_n_operands <> None
        && d.Dialect.d_n_results = Some 1
        && d.Dialect.d_n_regions = 0
        && not (Hashtbl.mem have_constructor name)
      then unencoded := (name, dialect_of name) :: !unencoded);
  {
    pm_fingerprint = fingerprint;
    pm_ops = ops;
    pm_cost_targets = Lazy.force p.Lint.c_cost_targets;
    pm_matchable = matchable;
    pm_introduced = introduced;
    pm_pending = pending;
    pm_encoded = encoded;
    pm_unencoded = List.rev !unencoded;
  }

let prelude_model_cache : prelude_model option ref = ref None

let prelude_builds = ref 0

let prelude_model_builds () = !prelude_builds

let prelude_model () =
  let fingerprint = Dialect.fingerprint () in
  match !prelude_model_cache with
  | Some pm when String.equal pm.pm_fingerprint fingerprint -> pm
  | _ ->
    let pm = build_prelude_model fingerprint in
    incr prelude_builds;
    prelude_model_cache := Some pm;
    pm

(* ------------------------------------------------------------------ *)
(* The audit                                                           *)
(* ------------------------------------------------------------------ *)

(* merge two name-sorted constructor lists *)
let rec merge_ops a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((na, _, _) as x) :: ra, ((nb, _, _) as y) :: rb ->
    if String.compare na nb <= 0 then x :: merge_ops ra b else y :: merge_ops a rb

let audit_checked (c : Lint.checked) : report =
  Mlir.Registry.ensure_registered ();
  let file = c.Lint.c_file in
  if Diag.has_errors c.Lint.c_diags then
    (* a program the sort-checker rejects cannot be modelled; surface
       the errors so a standalone audit still fails usefully *)
    {
      a_file = file;
      a_ops = [];
      a_rules = 0;
      a_diags = List.filter Diag.is_error c.Lint.c_diags;
    }
  else begin
    let pm = prelude_model () in
    let env = c.Lint.c_env in
    let cmds = Option.value c.Lint.c_cmds ~default:[] in
    let diags = ref [] in
    let add ?span severity code fmt =
      Fmt.kstr (fun m -> diags := Diag.make ?file ?span severity code m :: !diags) fmt
    in
    let span_of name = Hashtbl.find_opt (Lazy.force c.Lint.c_decls) name in
    let cost_targets = Lazy.force c.Lint.c_cost_targets in
    (* the functions this ruleset declares beyond the prelude *)
    let user_funcs = ref [] in
    Check.iter_funcs env (fun name fs ->
        if not (Lint.prelude_func name) then user_funcs := (name, fs) :: !user_funcs);
    (* ---------------- extraction totality: reachability fixpoint ----- *)
    let matchable = Hashtbl.create 16 in
    let introduced = Hashtbl.create 16 in
    List.iter
      (fun (name, _) -> if Lint.emittable env name then Hashtbl.replace matchable name ())
      !user_funcs;
    let mark h =
      Hashtbl.replace matchable h ();
      Hashtbl.replace introduced h ()
    in
    mark_globals mark cmds;
    ignore
      (saturate
         ~matchable:(fun h -> Hashtbl.mem pm.pm_matchable h || Hashtbl.mem matchable h)
         ~mark
         (pm.pm_pending @ rule_deps cmds)
        : (string list * string list) list);
    (* ---------------- per-constructor coverage, arity, cost ---------- *)
    let user_ops =
      List.filter_map
        (fun (name, fs) -> if is_op name fs then Some (name, fs, verdict name fs) else None)
        !user_funcs
      |> sort_by_name
    in
    let op_checks =
      List.filter_map
        (fun (name, (fs : Check.fsig), v) ->
          let span = span_of name in
          match v with
          | Bad_shape msg ->
            (* standalone audits must reject these too; under the full
               pipeline the lint tier already failed fast on them *)
            add ?span Diag.Error "bad-op-constructor"
              "%s: %s — the eggifier cannot emit this operation" name msg;
            None
          | Encodes { mlir; registered; findings } ->
            List.iter (fun (severity, code, m) -> add ?span severity code "%s" m) findings;
            let cost =
              match fs.Check.fs_cost with
              | Some c -> Cost_static c
              | None ->
                if Hashtbl.mem pm.pm_cost_targets name || Hashtbl.mem cost_targets name then
                  Cost_rule
                else Cost_default
            in
            let reachable =
              Hashtbl.mem pm.pm_introduced name || Hashtbl.mem introduced name
            in
            if reachable && cost = Cost_default then
              add ?span Diag.Error "cost-unreachable"
                "op constructor %s is reachable from rule right-hand sides \
                 but has no cost model (:cost or unstable-cost rule): \
                 extraction would silently price it at the default 1"
                name;
            Some
              {
                a_egg = name;
                a_mlir = mlir;
                a_registered = registered;
                a_cost = cost;
                a_reachable = reachable;
              })
        (merge_ops pm.pm_ops user_ops)
    in
    (* reverse coverage: registered ops of encoded dialects that eggify
       could translate but no constructor declares *)
    let encoded = Hashtbl.create 4 in
    let have_constructor = Hashtbl.create 8 in
    note_encodings ~have_constructor ~encoded user_ops;
    List.iter
      (fun (name, dialect) ->
        if
          (Hashtbl.mem pm.pm_encoded dialect || Hashtbl.mem encoded dialect)
          && not (Hashtbl.mem have_constructor name)
        then
          add Diag.Warning "mlir-op-unencoded"
            "registered op %s has no egg constructor although its dialect is \
             encoded: eggify will treat it opaquely and rules cannot see \
             through it"
            name)
      pm.pm_unencoded;
    (* ---------------- rule-level analyses ----------------------------- *)
    let directed = Lazy.force c.Lint.c_directed in
    let audit_call (d : Lint.directed) (e : Ast.expr) =
      match e with
      | Ast.Call (f, args) -> (
        match Vet.op_constructor env f with
        | Some arg_sorts when List.length arg_sorts = List.length args -> (
          let mlir = Sigs.mlir_name_of_egg f in
          match Dialect.find mlir with
          | None -> () (* unregistered: already warned at the declaration *)
          | Some dd ->
            (* sort soundness: a pinned trailing Type must refine the
               registered result class *)
            (match dd.Dialect.d_result_class with
            | [] -> ()
            | allowed ->
              List.iter2
                (fun sort arg ->
                  if Vet.kind_of_sort sort = Vet.K_type then
                    match class_of_type_pattern arg with
                    | Some c when not (List.mem c allowed) ->
                      add ~span:d.Lint.d_span Diag.Error "egg-sort-mismatch"
                        "rule %s builds %s with a %s result sort, but %s \
                         produces %s results"
                        d.Lint.d_name f
                        (Dialect.type_class_name c)
                        mlir
                        (String.concat "/"
                           (List.map Dialect.type_class_name allowed))
                    | _ -> ())
                arg_sorts args);
            (* purity: saturation may duplicate, share or delete this
               term — unsound for effectful ops *)
            if not (List.mem Dialect.Pure dd.Dialect.d_traits) then begin
              let call_only =
                dd.Dialect.d_effects <> []
                && List.for_all (( = ) Dialect.Call) dd.Dialect.d_effects
              in
              if not call_only then
                add ~span:d.Lint.d_span Diag.Error "rule-impure-op"
                  "rule %s mentions %s (via %s), which is not Pure%s: \
                   equality saturation may duplicate, share or delete it"
                  d.Lint.d_name mlir f
                  (match dd.Dialect.d_effects with
                  | [] -> ""
                  | es ->
                    " (effects: "
                    ^ String.concat ", " (List.map Dialect.effect_name es)
                    ^ ")")
            end)
        | _ -> ())
      | _ -> ()
    in
    List.iter
      (fun (d : Lint.directed) ->
        List.iter
          (iter_subterms (audit_call d))
          ((d.Lint.d_lhs :: d.Lint.d_rhs :: d.Lint.d_conds)))
      directed;
    {
      a_file = file;
      a_ops = op_checks;
      a_rules = List.length directed;
      a_diags = Diag.dedup (List.rev !diags);
    }
  end

let audit ?file (src : string) : report = audit_checked (Lint.check ?file src)

type cache_status = Disk_cache.status = Hit_memory | Hit_disk | Computed

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let cost_model_name = function
  | Cost_static c -> Printf.sprintf ":cost %d" c
  | Cost_rule -> "cost rule"
  | Cost_default -> "default"

let pp_coverage ppf (r : report) =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun c ->
      Fmt.pf ppf "%-24s -> %-20s %-12s %-10s %s" c.a_egg c.a_mlir
        (if c.a_registered then "registered" else "UNKNOWN")
        (cost_model_name c.a_cost)
        (if c.a_reachable then "reachable" else "-");
      Fmt.cut ppf ())
    r.a_ops;
  Fmt.pf ppf "@]"

let pp_summary ppf (r : report) =
  let registered = List.length (List.filter (fun c -> c.a_registered) r.a_ops) in
  Fmt.pf ppf
    "audit: %d constructor(s) (%d registered, %d unknown), %d rule(s), %d \
     error(s), %d warning(s)"
    (List.length r.a_ops) registered
    (List.length r.a_ops - registered)
    r.a_rules
    (Diag.count_errors r.a_diags)
    (Diag.count_warnings r.a_diags)
