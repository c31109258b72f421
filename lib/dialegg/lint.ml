(** Dialect-aware linting of DialEgg rule files.

    Layers the generic Egglog sort-checker ({!Egglog.Check}), seeded with
    every declaration of {!Prelude}, with lints that need DialEgg-specific
    knowledge of how the eggifier and extractor behave:

    - [bad-op-constructor] (error) — a user function returning [Op] whose
      parameters violate the canonical order {!Sigs} enforces (operands,
      attributes, regions, trailing result type); {!Sigs.scan} would
      reject it before saturation anyway, but here it gets a span;
    - [dead-rule] (warning) — a rule matching on a constructor that
      nothing can ever produce: not an op the eggifier can emit, not a
      type/attribute (those come from translation hooks), and never
      created by any rule action or global [let];
    - [op-no-cost] (warning) — a user op constructor with neither a
      [:cost] annotation nor an [unstable-cost] rule targeting it, so
      extraction silently prices it at the default 1;
    - [unstable-cost-unbound] (warning) — a cost expression calling
      [type-of]/[nrows]/[ncols] on an argument with no matching binding
      in the rule's facts, so the table lookup can fail mid-action;
    - [expansion-no-cost] (warning) — a rewrite whose right-hand side
      strictly contains its left-hand side with no cost model on the new
      root: pure expansion that can blow up saturation. *)

module Ast = Egglog.Ast
module Check = Egglog.Check
module Diag = Egglog.Diag
module Sexp = Egglog.Sexp

(* ------------------------------------------------------------------ *)
(* The directed-rule model                                             *)
(* ------------------------------------------------------------------ *)

(* One direction of a rewrite, or one [union] action of a [rule] with its
   let/fact bindings substituted away: what vet's passes and the audit's
   rule-level checks run on. *)
type directed = {
  d_name : string;
  d_span : Sexp.span;
  d_lhs : Ast.expr;
  d_rhs : Ast.expr;
  d_conds : Ast.expr list;  (** additional LHS-side patterns (guards, other facts) *)
  d_pure : bool;  (** an unconditional rewrite — eligible for shadowing analysis *)
}

let head_name = function
  | Ast.Call (f, _) -> f
  | Ast.Var x -> x
  | Ast.Wildcard -> "_"
  | Ast.Lit _ -> "<lit>"

let line (span : Sexp.span) = span.Sexp.sp_start.Sexp.line

(* Variable bindings implied by (=) facts: each variable element stands
   for the first non-variable pattern in the same fact. *)
let fact_bindings (facts : Ast.fact list) : Egglog.Pattern.binding list =
  List.concat_map
    (function
      | Ast.F_eq es -> (
        match
          List.find_opt (function Ast.Var _ | Ast.Wildcard -> false | _ -> true) es
        with
        | Some p ->
          List.filter_map (function Ast.Var x -> Some (x, p) | _ -> None) es
        | None -> [])
      | Ast.F_expr _ -> [])
    facts

(* Substitute until stable (bindings may reference each other), bounded
   in case of cyclic (=) facts. *)
let apply_fix bindings e =
  let rec go n e =
    if n = 0 then e
    else
      let e' = Egglog.Pattern.apply bindings e in
      if Egglog.Pattern.equal e' e then e else go (n - 1) e'
  in
  go 8 e

let cond_patterns (facts : Ast.fact list) : Ast.expr list =
  List.concat_map
    (function
      | Ast.F_eq es -> List.filter (function Ast.Call _ -> true | _ -> false) es
      | Ast.F_expr (Ast.Call _ as e) -> [ e ]
      | Ast.F_expr _ -> [])
    facts

let directed_rules (cmds : (Ast.command * Sexp.located) list) : directed list =
  let out = ref [] in
  let push ?(pure = false) ?name ~span lhs rhs conds =
    let name =
      match name with
      | Some s -> s
      | None -> Printf.sprintf "%s=>%s@%d" (head_name lhs) (head_name rhs) (line span)
    in
    out :=
      { d_name = name; d_span = span; d_lhs = lhs; d_rhs = rhs; d_conds = conds; d_pure = pure }
      :: !out
  in
  List.iter
    (fun ((cmd : Ast.command), (loc : Sexp.located)) ->
      let span = loc.Sexp.span in
      match cmd with
      | Ast.C_rewrite { lhs; rhs; conds; bidirectional; _ } ->
        let pats = cond_patterns conds in
        push ~pure:(conds = []) ~span lhs rhs pats;
        if bidirectional then push ~pure:(conds = []) ~span rhs lhs pats
      | Ast.C_rule { name; facts; actions; _ } ->
        let fact_pats = cond_patterns facts in
        (* resolve rule-local lets against fact bindings and earlier lets *)
        let bindings =
          List.fold_left
            (fun acc a ->
              match a with Ast.A_let (x, e) -> (x, apply_fix acc e) :: acc | _ -> acc)
            (fact_bindings facts) actions
        in
        List.iter
          (function
            | Ast.A_union (a, b) -> (
              let ra = apply_fix bindings a and rb = apply_fix bindings b in
              let is_call = function Ast.Call _ -> true | _ -> false in
              (* orient: the matched pattern side is the LHS *)
              match (is_call ra, is_call rb) with
              | true, _ -> push ?name ~span ra rb fact_pats
              | false, true -> push ?name ~span rb ra fact_pats
              | false, false -> ())
            | _ -> ())
          actions
      | _ -> ())
    cmds;
  List.rev !out

(* the functions an unstable-cost action of these commands targets *)
let cost_targets cmds =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ((cmd : Ast.command), _) ->
      let actions =
        match cmd with C_rule { actions; _ } -> actions | C_action a -> [ a ] | _ -> []
      in
      List.iter
        (function Ast.A_cost (Call (f, _), _) -> Hashtbl.replace tbl f () | _ -> ())
        actions)
    cmds;
  tbl

(* the functions these commands declare, with their declaration sites *)
let decl_sites cmds =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((cmd : Ast.command), (cloc : Sexp.located)) ->
      match cmd with
      | C_function d -> Hashtbl.replace tbl d.f_name cloc.span
      | C_relation (name, _) -> Hashtbl.replace tbl name cloc.span
      | C_datatype (_, variants) ->
        List.iter (fun (v : Ast.variant) -> Hashtbl.replace tbl v.v_name cloc.span) variants
      | _ -> ())
    cmds;
  tbl

type checked = {
  c_src : string;
  c_file : string option;
  c_env : Check.env;
  c_diags : Diag.t list;
  c_cmds : (Ast.command * Sexp.located) list option;
  c_directed : directed list Lazy.t;
  c_cost_targets : (string, unit) Hashtbl.t Lazy.t;
  c_decls : (string, Sexp.span) Hashtbl.t Lazy.t;
}

(* [src] checked against [env] (which the check extends); [read] is
   [Parser.read src] *)
let check_with ?file ?read ~env src =
  let read = match read with Some r -> r | None -> Egglog.Parser.read src in
  let diags, cmds = Check.check_read ?file ~env read in
  let located = Option.value cmds ~default:[] in
  {
    c_src = src;
    c_file = file;
    c_env = env;
    c_diags = diags;
    c_cmds = cmds;
    c_directed = lazy (directed_rules located);
    c_cost_targets = lazy (cost_targets located);
    c_decls = lazy (decl_sites located);
  }

(* The prelude, checked once.  Its environment is never modified: every
   ruleset is checked against a copy, so user declarations never leak
   between runs. *)
let prelude =
  lazy
    (let c = check_with ~file:"<prelude>" ~env:(Check.create_env ()) Prelude.source in
     assert (not (Diag.has_errors c.c_diags));
     c)

(** A checking environment preloaded with the DialEgg prelude. *)
let fresh_env () = Check.copy_env (Lazy.force prelude).c_env

let prelude_funcs =
  lazy
    (let s = Hashtbl.create 128 in
     Check.iter_funcs (Lazy.force prelude).c_env (fun name _ -> Hashtbl.replace s name ());
     s)

(* ------------------------------------------------------------------ *)
(* Helpers over the AST                                                *)
(* ------------------------------------------------------------------ *)

let rec call_heads acc (e : Ast.expr) =
  match e with
  | Call (f, args) ->
    if not (Egglog.Primitives.is_primitive f) then Hashtbl.replace acc f ();
    List.iter (call_heads acc) args
  | Var _ | Wildcard | Lit _ -> ()

let fact_exprs = function Ast.F_eq es -> es | Ast.F_expr e -> [ e ]

let rec subterms acc (e : Ast.expr) =
  acc := e :: !acc;
  match e with Ast.Call (_, args) -> List.iter (subterms acc) args | _ -> ()

let rec occurs_in a b =
  a = b || match b with Ast.Call (_, args) -> List.exists (occurs_in a) args | _ -> false

(** [strictly_contains rhs lhs]: [lhs] is a proper subterm of [rhs]. *)
let strictly_contains rhs lhs =
  lhs <> rhs && match rhs with Ast.Call (_, args) -> List.exists (occurs_in lhs) args | _ -> false

(* Mirror of the canonical-order enforcement in {!Sigs.sig_of_function},
   over declared sort names instead of a live e-graph. *)
let op_shape_error name (args : string list) : string option =
  let phase = ref 0 in
  let n_ops = ref 0 in
  let has_type = ref false in
  let err = ref None in
  let set_err m = if !err = None then err := Some m in
  List.iter
    (fun s ->
      match s with
      | "Op" -> if !phase > 0 then set_err "operand (Op) parameter after attributes/regions" else incr n_ops
      | "AttrPair" ->
        if !phase > 1 then set_err "AttrPair parameter after regions" else phase := 1
      | "Region" -> if !phase > 2 then set_err "Region parameter after the type" else phase := 2
      | "Type" ->
        if !has_type then set_err "more than one trailing Type parameter"
        else begin
          phase := 3;
          has_type := true
        end
      | s -> set_err (Printf.sprintf "unsupported parameter sort %s in an op constructor" s))
    args;
  (match Sigs.split_variadic name with
  | _, Some n when n <> !n_ops ->
    set_err (Printf.sprintf "variadic suffix %d does not match %d Op parameters" n !n_ops)
  | _ -> ());
  !err

let well_formed_op env f =
  match Check.find_func env f with
  | Some fs when fs.Check.fs_ret = "Op" && f <> "Value" ->
    op_shape_error f fs.Check.fs_args = None
  | _ -> false

(** Can the eggifier or a translation hook ever create this head? *)
let emittable env f =
  match Check.find_func env f with
  | None -> true (* unknown: the checker already errored *)
  | Some fs -> (
    match fs.Check.fs_ret with
    | "Op" -> f = "Value" || well_formed_op env f
    | "Type" | "Attr" | "AttrPair" -> true (* translation hooks synthesise these *)
    | _ -> false)

let prelude_func f = Hashtbl.mem (Lazy.force prelude_funcs) f

(* ------------------------------------------------------------------ *)
(* The dialect lints                                                   *)
(* ------------------------------------------------------------------ *)

let cost_fn_names = [ "type-of"; "nrows"; "ncols" ]

let dialect_lints (c : checked) (cmds : (Ast.command * Sexp.located) list) : Diag.t list =
  let file = c.c_file and env = c.c_env in
  let diags = ref [] in
  let warn span code fmt =
    Fmt.kstr (fun m -> diags := Diag.make ?file ~span Diag.Warning code m :: !diags) fmt
  in
  let err span code fmt =
    Fmt.kstr (fun m -> diags := Diag.make ?file ~span Diag.Error code m :: !diags) fmt
  in
  let cost_rule_targets = Lazy.force c.c_cost_targets in
  (* everything some action, RHS or global let can create *)
  let produced = Hashtbl.create 32 in
  let produce_action (a : Ast.action) =
    match a with
    | A_let (_, e) | A_expr e -> call_heads produced e
    | A_union (x, y) | A_set (x, y) -> (
      call_heads produced x;
      call_heads produced y)
    | A_cost _ | A_delete _ | A_panic _ -> ()
  in
  List.iter
    (fun ((cmd : Ast.command), _) ->
      match cmd with
      | C_let (_, e) -> call_heads produced e
      | C_action a -> produce_action a
      | C_rewrite { lhs; rhs; bidirectional; _ } ->
        call_heads produced rhs;
        if bidirectional then call_heads produced lhs
      | C_rule { actions; _ } -> List.iter produce_action actions
      | _ -> ())
    cmds;
  let user_decls = Lazy.force c.c_decls in
  (* --- op constructor declarations --- *)
  List.iter
    (fun ((cmd : Ast.command), (cloc : Sexp.located)) ->
      match cmd with
      | C_function d when d.f_ret = "Op" && d.f_name <> "Value" -> (
        match op_shape_error d.f_name d.f_args with
        | Some msg ->
          err cloc.span "bad-op-constructor" "%s: %s — the eggifier cannot emit this operation"
            d.f_name msg
        | None ->
          if d.f_cost = None && not (Hashtbl.mem cost_rule_targets d.f_name) then
            warn cloc.span "op-no-cost"
              "op constructor %s has neither :cost nor an unstable-cost rule; extraction prices it at the default 1"
              d.f_name)
      | _ -> ())
    cmds;
  (* --- dead rules --- *)
  let check_dead span (pats : Ast.expr list) =
    let refs = Hashtbl.create 8 in
    List.iter (call_heads refs) pats;
    Hashtbl.iter
      (fun f () ->
        if
          Hashtbl.mem user_decls f
          && (not (prelude_func f))
          && (not (Hashtbl.mem produced f))
          && not (emittable env f)
        then
          warn span "dead-rule"
            "rule can never fire: %s is not an operation the eggifier can emit and no rule action or let ever produces it"
            f)
      refs
  in
  List.iter
    (fun ((cmd : Ast.command), (cloc : Sexp.located)) ->
      match cmd with
      | C_rewrite { lhs; rhs; conds; bidirectional; _ } ->
        let cond_exprs = List.concat_map fact_exprs conds in
        check_dead cloc.span ((lhs :: cond_exprs) @ if bidirectional then [ rhs ] else [])
      | C_rule { facts; _ } -> check_dead cloc.span (List.concat_map fact_exprs facts)
      | _ -> ())
    cmds;
  (* --- unstable-cost lookups with no backing fact --- *)
  List.iter
    (fun ((cmd : Ast.command), (cloc : Sexp.located)) ->
      match cmd with
      | C_rule { facts; actions; _ } ->
        let fact_subs = ref [] in
        List.iter (fun f -> List.iter (subterms fact_subs) (fact_exprs f)) facts;
        let action_locs =
          match cloc.node with
          | N_list (_ :: _ :: { Sexp.node = N_list als; _ } :: _) -> als
          | _ -> []
        in
        List.iteri
          (fun i (a : Ast.action) ->
            match a with
            | A_cost (_, cost) ->
              let span =
                match List.nth_opt action_locs i with Some l -> l.Sexp.span | None -> cloc.span
              in
              let subs = ref [] in
              subterms subs cost;
              List.iter
                (fun sub ->
                  match sub with
                  | Ast.Call (g, _) when List.mem g cost_fn_names ->
                    if not (List.exists (fun t -> t = sub) !fact_subs) then
                      warn span "unstable-cost-unbound"
                        "cost expression looks up (%s ...) with no matching binding in the rule's facts — the lookup can fail and abort the action"
                        g
                  | _ -> ())
                !subs
            | _ -> ())
          actions
      | _ -> ())
    cmds;
  (* --- expansion-only rewrites without a cost model --- *)
  List.iter
    (fun ((cmd : Ast.command), (cloc : Sexp.located)) ->
      match cmd with
      | C_rewrite { lhs; rhs; bidirectional; _ } ->
        let directions = (lhs, rhs) :: if bidirectional then [ (rhs, lhs) ] else [] in
        List.iter
          (fun (l, r) ->
            if strictly_contains r l then
              match r with
              | Ast.Call (f, _) ->
                let cost =
                  match Check.find_func env f with Some fs -> fs.fs_cost | None -> None
                in
                if cost = None && not (Hashtbl.mem cost_rule_targets f) then
                  warn cloc.span "expansion-no-cost"
                    "expansion-only rewrite: the right-hand side strictly contains the left-hand side and its root %s has no :cost or cost rule — saturation can grow without bound"
                    f
              | _ -> ())
          directions
      | _ -> ())
    cmds;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* One copy of the prelude environment, one located parse, one sort
   check: what lint, vet and audit all start from. *)
let check ?file ?read (src : string) : checked = check_with ?file ?read ~env:(fresh_env ()) src

(** Generic sort checking plus the dialect lints over a checked ruleset. *)
let lint_checked (c : checked) : Diag.t list =
  let dialect =
    match c.c_cmds with
    | Some cmds -> dialect_lints c cmds
    | None -> [] (* unparsable: c_diags already carries the error *)
  in
  Diag.dedup (c.c_diags @ dialect)

(** Lint a rules program against the prelude-seeded environment.  Never
    raises. *)
let lint_rules ?file (src : string) : Diag.t list = lint_checked (check ?file src)
