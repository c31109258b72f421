(** Static sort-checker for Egglog programs.

    Validates a program against the declared sorts, datatypes, functions,
    relations and primitive signatures without running it: every
    expression gets a sort inferred by unification, pattern-variable
    binding is tracked with the same left-to-right discipline the
    {!Matcher} uses at run time, and every violation becomes a
    structured {!Diag.t} instead of a [Failure] at saturation time.

    Diagnostic codes emitted here:
    - [parse-error] — the s-expression is not a valid command;
    - [unknown-sort] / [unknown-function] / [unknown-name] /
      [unknown-ruleset] — reference to an undeclared entity;
    - [arity-mismatch] — wrong number of arguments;
    - [sort-mismatch] — an expression's sort conflicts with its context;
    - [unbound-var] — a pattern variable used where a value is needed
      (rewrite RHS, action, primitive argument) but never bound;
    - [wildcard-rhs] — a wildcard in evaluated position;
    - [rebound-let] — a global [let] name defined twice (a [(pop)]
      forgets the globals defined since its [(push)]);
    - [pop-without-push] — a [(pop)] with no open [(push)], which the
      interpreter rejects when it runs;
    - [duplicate-rule] — two rules declared with the same [:name];
    - [duplicate-constructor] — a constructor declared twice in the same
      [datatype];
    - [redeclared] — conflicting sort/function/ruleset redeclaration
      (an identical redeclaration is benign, so a rules file may repeat
      the prelude);
    - [bad-pattern] — a rewrite LHS that is not a table application;
    - [bad-action] — a malformed [set]/[delete]/[unstable-cost];
    - [bad-merge] — a [:merge] expression the engine cannot evaluate;
    - [negative-cost] — a [:cost] below zero (extraction needs costs
      ≥ 0 to terminate);
    - [cost-overflow] — a [:cost] at or above {!Egraph.cost_cap}, where
      extraction's saturating sums read it as "no finite term";
    - [unconstrained-fact] — a fact that can never bind or test anything;
    - [shadowed-binding] (warning) — a rule-local [let] reusing a name;
    - [non-boolean-guard] (warning) — a guard whose sort is not [bool]
      (the engine treats any non-[false] value as success). *)

(* ------------------------------------------------------------------ *)
(* Inferred sorts                                                      *)
(* ------------------------------------------------------------------ *)

type ty =
  | Tsort of string
  | Tvec of ty  (** a vector value whose named sort is not yet known *)
  | Tvar of tvar

and tvar = { id : int; mutable inst : ty option }

let rec repr ty =
  match ty with
  | Tvar ({ inst = Some t; _ } as v) ->
    let r = repr t in
    v.inst <- Some r;
    r
  | _ -> ty

let rec ty_str ty =
  match repr ty with
  | Tsort s -> s
  | Tvec e -> "(Vec " ^ ty_str e ^ ")"
  | Tvar _ -> "_"

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

type sort_def = Plain | Vec_sort of string

type fsig = { fs_args : string list; fs_ret : string; fs_cost : int option }

type env = {
  sorts : (string, sort_def) Hashtbl.t;
  funcs : (string, fsig) Hashtbl.t;
  globals : (string, ty) Hashtbl.t;
  rulesets : (string, unit) Hashtbl.t;
  rule_names : (string, unit) Hashtbl.t;  (** [:name]d rules seen so far *)
  mutable pushed : (string * ty) list list;
      (** the globals at each open [(push)], innermost first: [(pop)]
          restores them, as the interpreter does *)
}

let builtin_sorts = [ "i64"; "f64"; "String"; "bool"; "Unit" ]

let create_env () =
  let env =
    {
      sorts = Hashtbl.create 32;
      funcs = Hashtbl.create 64;
      globals = Hashtbl.create 16;
      rulesets = Hashtbl.create 8;
      rule_names = Hashtbl.create 8;
      pushed = [];
    }
  in
  List.iter (fun s -> Hashtbl.replace env.sorts s Plain) builtin_sorts;
  env

let rec zonk ty =
  match repr ty with
  | Tsort s -> Tsort s
  | Tvec e -> Tvec (zonk e)
  | Tvar _ -> Tvar { id = -1; inst = None }

let copy_env env =
  {
    sorts = Hashtbl.copy env.sorts;
    funcs = Hashtbl.copy env.funcs;
    globals =
      (let g = Hashtbl.create (Hashtbl.length env.globals) in
       (* break unification-variable sharing with the source env *)
       Hashtbl.iter (fun k v -> Hashtbl.replace g k (zonk v)) env.globals;
       g);
    rulesets = Hashtbl.copy env.rulesets;
    rule_names = Hashtbl.copy env.rule_names;
    pushed = List.map (List.map (fun (x, t) -> (x, zonk t))) env.pushed;
  }

let find_func env name = Hashtbl.find_opt env.funcs name

let iter_funcs env f = Hashtbl.iter f env.funcs

let vec_elem env name =
  match Hashtbl.find_opt env.sorts name with Some (Vec_sort e) -> Some e | _ -> None

(* ------------------------------------------------------------------ *)
(* Checker context                                                     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  env : env;
  file : string option;
  mutable diags : Diag.t list;  (** reversed *)
  mutable next : int;
}

let fresh ctx =
  ctx.next <- ctx.next + 1;
  Tvar { id = ctx.next; inst = None }

let errf ctx span code fmt =
  Fmt.kstr (fun m -> ctx.diags <- Diag.make ?file:ctx.file ~span Diag.Error code m :: ctx.diags) fmt

let warnf ctx span code fmt =
  Fmt.kstr (fun m -> ctx.diags <- Diag.make ?file:ctx.file ~span Diag.Warning code m :: ctx.diags) fmt

let rec occurs v ty =
  match repr ty with Tvar v2 -> v2 == v | Tvec e -> occurs v e | Tsort _ -> false

let rec unify env a b =
  let a = repr a and b = repr b in
  match (a, b) with
  | Tvar v, t | t, Tvar v -> (
    match t with
    | Tvar v2 when v2 == v -> true
    | _ ->
      if occurs v t then false
      else begin
        v.inst <- Some t;
        true
      end)
  | Tsort x, Tsort y -> x = y
  | Tsort x, Tvec e | Tvec e, Tsort x -> (
    (* a named vec sort unifies with a structural vector of its element sort *)
    match vec_elem env x with Some el -> unify env e (Tsort el) | None -> false)
  | Tvec x, Tvec y -> unify env x y

let unify_or ctx span ~expected ~actual what =
  if not (unify ctx.env expected actual) then
    errf ctx span "sort-mismatch" "%s: expected %s, got %s" what (ty_str expected) (ty_str actual)

let lit_ty : Ast.lit -> ty = function
  | L_i64 _ -> Tsort "i64"
  | L_f64 _ -> Tsort "f64"
  | L_string _ -> Tsort "String"
  | L_bool _ -> Tsort "bool"
  | L_unit -> Tsort "Unit"

let is_pattern_var x = String.length x > 0 && x.[0] = '?'

(* ------------------------------------------------------------------ *)
(* Located expressions                                                 *)
(* ------------------------------------------------------------------ *)

(* Mirror of {!Ast.expr} with the span of every node, rebuilt from the
   located s-expression with exactly the parser's atom interpretation. *)
type lexpr =
  | E_var of string * Sexp.span
  | E_wild of Sexp.span
  | E_lit of Ast.lit * Sexp.span
  | E_call of string * Sexp.span * lexpr list * Sexp.span
      (** name, head span, arguments, whole-application span *)

exception Bad_syntax of Sexp.span * string

let rec lexpr_of_loc (l : Sexp.located) : lexpr =
  let sp = l.span in
  match l.node with
  | N_str s -> E_lit (L_string s, sp)
  | N_atom ("_" | "?") -> E_wild sp
  | N_atom "true" -> E_lit (L_bool true, sp)
  | N_atom "false" -> E_lit (L_bool false, sp)
  | N_atom a when Parser.is_int_atom a -> (
    match Int64.of_string_opt a with
    | Some n -> E_lit (L_i64 n, sp)
    | None -> raise (Bad_syntax (sp, "integer literal out of range: " ^ a)))
  | N_atom a when Parser.is_float_atom a -> E_lit (L_f64 (float_of_string a), sp)
  | N_atom a -> E_var (a, sp)
  | N_list [] -> E_lit (L_unit, sp)
  | N_list ({ node = N_atom f; span = hsp } :: args) ->
    E_call (f, hsp, List.map lexpr_of_loc args, sp)
  | N_list (h :: _) -> raise (Bad_syntax (h.span, "head of application must be an atom"))

let lexpr_span = function
  | E_var (_, sp) | E_wild sp | E_lit (_, sp) | E_call (_, _, _, sp) -> sp

(* ------------------------------------------------------------------ *)
(* Expression checking                                                 *)
(* ------------------------------------------------------------------ *)

(* [Top] is top-level command position (only globals are in scope);
   [Rule bound] carries the pattern variables and rule-local lets bound
   so far, mirroring the matcher's environment. *)
type scope = Top | Rule of (string, ty) Hashtbl.t

let rec zip : 'a 'b. 'a list -> 'b list -> ('a * 'b) list =
 fun a b -> match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []

let lookup_var ctx scope x =
  match scope with
  | Rule bound -> (
    match Hashtbl.find_opt bound x with
    | Some t -> Some t
    | None -> if is_pattern_var x then None else Hashtbl.find_opt ctx.env.globals x)
  | Top -> if is_pattern_var x then None else Hashtbl.find_opt ctx.env.globals x

let rec check_eval ctx scope (e : lexpr) : ty =
  match e with
  | E_lit (l, _) -> lit_ty l
  | E_wild sp ->
    errf ctx sp "wildcard-rhs"
      "wildcard cannot appear in an evaluated expression (rewrite right-hand side or action)";
    fresh ctx
  | E_var (x, sp) -> (
    match lookup_var ctx scope x with
    | Some t -> t
    | None ->
      (match scope with
      | Rule bound ->
        errf ctx sp "unbound-var"
          "variable %s is never bound by the left-hand side or an earlier fact" x;
        (* bind it so the diagnostic is reported once per rule *)
        let t = fresh ctx in
        Hashtbl.replace bound x t;
        t
      | Top ->
        if is_pattern_var x then
          errf ctx sp "unbound-var" "pattern variable %s outside a rule" x
        else errf ctx sp "unknown-name" "unknown name %s" x;
        fresh ctx))
  | E_call (f, hsp, args, sp) ->
    if Primitives.is_primitive f then check_prim ctx scope f args hsp sp
    else (
      match find_func ctx.env f with
      | None ->
        errf ctx hsp "unknown-function" "unknown function or constructor %s" f;
        List.iter (fun a -> ignore (check_eval ctx scope a)) args;
        fresh ctx
      | Some fs ->
        check_arity ctx sp f (List.length fs.fs_args) (List.length args);
        List.iteri
          (fun i (a, s) ->
            let t = check_eval ctx scope a in
            unify_or ctx (lexpr_span a) ~expected:(Tsort s) ~actual:t
              (Printf.sprintf "argument %d of %s" (i + 1) f))
          (zip args fs.fs_args);
        Tsort fs.fs_ret)

and check_arity ctx sp f n_exp n_got =
  if n_exp <> n_got then
    errf ctx sp "arity-mismatch" "%s expects %d argument(s), got %d" f n_exp n_got

(* Primitive signatures, polymorphic where {!Primitives.apply} is. *)
and check_prim ctx scope f args _hsp sp : ty =
  let ev a = check_eval ctx scope a in
  let arity n = check_arity ctx sp f n (List.length args) in
  let arg i = List.nth_opt args i in
  let ev_at i = match arg i with Some a -> ev a | None -> fresh ctx in
  let span_at i = match arg i with Some a -> lexpr_span a | None -> sp in
  let want i expected =
    let t = ev_at i in
    unify_or ctx (span_at i) ~expected ~actual:t (Printf.sprintf "argument %d of %s" (i + 1) f);
    t
  in
  let unify2 () =
    let t = ev_at 0 in
    unify_or ctx (span_at 1) ~expected:t ~actual:(ev_at 1)
      (Printf.sprintf "arguments of %s must share a sort" f);
    t
  in
  let numeric i t classes =
    match repr t with
    | Tsort s when List.mem s classes -> ()
    | Tvar _ -> ()
    | t ->
      errf ctx (span_at i) "sort-mismatch" "argument %d of %s: expected one of %s, got %s" (i + 1)
        f (String.concat "/" classes) (ty_str t)
  in
  let rest_evald () = List.iteri (fun i _ -> if i > 1 then ignore (ev_at i)) args in
  rest_evald ();
  match f with
  | "+" ->
    arity 2;
    let t = unify2 () in
    numeric 0 t [ "i64"; "f64"; "String" ];
    t
  | "-" ->
    if List.length args = 1 then begin
      let t = ev_at 0 in
      numeric 0 t [ "i64"; "f64" ];
      t
    end
    else begin
      arity 2;
      let t = unify2 () in
      numeric 0 t [ "i64"; "f64" ];
      t
    end
  | "*" | "/" | "%" | "min" | "max" | "pow" ->
    arity 2;
    let t = unify2 () in
    numeric 0 t [ "i64"; "f64" ];
    t
  | "abs" | "neg" ->
    arity 1;
    let t = ev_at 0 in
    numeric 0 t [ "i64"; "f64" ];
    t
  | "<" | "<=" | ">" | ">=" ->
    arity 2;
    let t = unify2 () in
    numeric 0 t [ "i64"; "f64" ];
    Tsort "bool"
  | "==" | "!=" ->
    arity 2;
    ignore (unify2 ());
    Tsort "bool"
  | "log2" ->
    arity 1;
    ignore (want 0 (Tsort "i64"));
    Tsort "i64"
  | "sqrt" ->
    arity 1;
    ignore (want 0 (Tsort "f64"));
    Tsort "f64"
  | "<<" | ">>" | "&" | "|" | "^" ->
    arity 2;
    ignore (want 0 (Tsort "i64"));
    ignore (want 1 (Tsort "i64"));
    Tsort "i64"
  | "not" ->
    arity 1;
    ignore (want 0 (Tsort "bool"));
    Tsort "bool"
  | "and" | "or" | "xor" ->
    arity 2;
    ignore (want 0 (Tsort "bool"));
    ignore (want 1 (Tsort "bool"));
    Tsort "bool"
  | "to-f64" ->
    arity 1;
    ignore (want 0 (Tsort "i64"));
    Tsort "f64"
  | "to-i64" ->
    arity 1;
    ignore (want 0 (Tsort "f64"));
    Tsort "i64"
  | "to-string" ->
    arity 1;
    ignore (ev_at 0);
    Tsort "String"
  | "f64-to-i64-bits" ->
    arity 1;
    ignore (want 0 (Tsort "f64"));
    Tsort "i64"
  | "i64-bits-to-f64" ->
    arity 1;
    ignore (want 0 (Tsort "i64"));
    Tsort "f64"
  | "vec-of" ->
    let elem = fresh ctx in
    List.iteri
      (fun i a ->
        unify_or ctx (lexpr_span a) ~expected:elem ~actual:(ev a)
          (Printf.sprintf "element %d of vec-of" (i + 1)))
      args;
    Tvec elem
  | "vec-empty" ->
    arity 0;
    Tvec (fresh ctx)
  | "vec-push" ->
    arity 2;
    let elem = fresh ctx in
    let t = want 0 (Tvec elem) in
    ignore (want 1 elem);
    t
  | "vec-pop" ->
    arity 1;
    want 0 (Tvec (fresh ctx))
  | "vec-get" ->
    arity 2;
    let elem = fresh ctx in
    ignore (want 0 (Tvec elem));
    ignore (want 1 (Tsort "i64"));
    elem
  | "vec-set" ->
    arity 3;
    let elem = fresh ctx in
    let t = want 0 (Tvec elem) in
    ignore (want 1 (Tsort "i64"));
    ignore (want 2 elem);
    t
  | "vec-length" ->
    arity 1;
    ignore (want 0 (Tvec (fresh ctx)));
    Tsort "i64"
  | "vec-append" ->
    arity 2;
    let t = unify2 () in
    unify_or ctx (span_at 0) ~expected:(Tvec (fresh ctx)) ~actual:t "vec-append argument";
    t
  | "vec-contains" ->
    arity 2;
    let elem = fresh ctx in
    ignore (want 0 (Tvec elem));
    ignore (want 1 elem);
    Tsort "bool"
  | "str-concat" ->
    arity 2;
    ignore (want 0 (Tsort "String"));
    ignore (want 1 (Tsort "String"));
    Tsort "String"
  | "str-length" ->
    arity 1;
    ignore (want 0 (Tsort "String"));
    Tsort "i64"
  | _ ->
    (* is_primitive and this table are kept in sync; be permissive if not *)
    List.iter (fun a -> ignore (ev a)) args;
    fresh ctx

(* ------------------------------------------------------------------ *)
(* Pattern checking (rule facts and rewrite left-hand sides)           *)
(* ------------------------------------------------------------------ *)

let rec check_pattern ctx bound (e : lexpr) (expected : ty) : unit =
  match e with
  | E_wild _ -> ()
  | E_lit (l, sp) -> unify_or ctx sp ~expected ~actual:(lit_ty l) "literal pattern"
  | E_var (x, sp) -> (
    match Hashtbl.find_opt bound x with
    | Some t -> unify_or ctx sp ~expected ~actual:t ("variable " ^ x)
    | None -> (
      match (if is_pattern_var x then None else Hashtbl.find_opt ctx.env.globals x) with
      | Some t -> unify_or ctx sp ~expected ~actual:t ("global " ^ x)
      | None -> Hashtbl.replace bound x expected))
  | E_call ("vec-of", _, args, sp) ->
    (* vec-of patterns destructure: their elements bind variables *)
    let elem = fresh ctx in
    unify_or ctx sp ~expected ~actual:(Tvec elem) "vec-of pattern";
    List.iter (fun a -> check_pattern ctx bound a elem) args
  | E_call (f, hsp, args, sp) when Primitives.is_primitive f ->
    (* computed subpattern: evaluated during matching, so every variable
       inside must already be bound *)
    let t = check_prim ctx (Rule bound) f args hsp sp in
    unify_or ctx sp ~expected ~actual:t ("result of primitive " ^ f)
  | E_call (f, hsp, args, sp) -> (
    match find_func ctx.env f with
    | None ->
      errf ctx hsp "unknown-function" "unknown function or constructor %s" f;
      List.iter (fun a -> check_pattern ctx bound a (fresh ctx)) args
    | Some fs ->
      check_arity ctx sp f (List.length fs.fs_args) (List.length args);
      List.iter (fun (a, s) -> check_pattern ctx bound a (Tsort s)) (zip args fs.fs_args);
      unify_or ctx sp ~expected ~actual:(Tsort fs.fs_ret) ("application of " ^ f))

(* ------------------------------------------------------------------ *)
(* Facts and actions                                                   *)
(* ------------------------------------------------------------------ *)

let is_eval_prim f = Primitives.is_primitive f && f <> "vec-of"

let check_fact ctx bound (l : Sexp.located) =
  match l.node with
  | N_list ({ node = N_atom "="; _ } :: args) when List.length args >= 2 ->
    let target = fresh ctx in
    (* [anchored] tracks whether some element can produce the shared
       value; a fact of nothing but unbound variables never matches *)
    let anchored = ref false in
    List.iter
      (fun a ->
        match lexpr_of_loc a with
        | E_wild _ -> ()
        | E_lit (lit, sp) ->
          anchored := true;
          unify_or ctx sp ~expected:target ~actual:(lit_ty lit) "literal in (=) fact"
        | E_var (x, sp) -> (
          match Hashtbl.find_opt bound x with
          | Some t ->
            anchored := true;
            unify_or ctx sp ~expected:target ~actual:t ("variable " ^ x)
          | None -> (
            match (if is_pattern_var x then None else Hashtbl.find_opt ctx.env.globals x) with
            | Some t ->
              anchored := true;
              unify_or ctx sp ~expected:target ~actual:t ("global " ^ x)
            | None ->
              (* deferred binding: bound once another element produces the value *)
              Hashtbl.replace bound x target))
        | E_call (f, _, _, sp) as e when is_eval_prim f ->
          anchored := true;
          let t = check_eval ctx (Rule bound) e in
          unify_or ctx sp ~expected:target ~actual:t ("result of primitive " ^ f)
        | e ->
          anchored := true;
          check_pattern ctx bound e target)
      args;
    if not !anchored then
      errf ctx l.span "unconstrained-fact"
        "(=) fact binds no value: every element is an unbound variable or wildcard"
  | _ -> (
    match lexpr_of_loc l with
    | E_call (f, _, _, _) as e when is_eval_prim f ->
      (* boolean guard *)
      let t = check_eval ctx (Rule bound) e in
      (match repr t with
      | Tsort s when s <> "bool" ->
        warnf ctx l.span "non-boolean-guard"
          "guard evaluates to %s, not bool — any non-false value passes" s
      | _ -> ())
    | E_call _ as e -> check_pattern ctx bound e (fresh ctx)
    | E_var (x, sp) ->
      if
        (not (Hashtbl.mem bound x))
        && not ((not (is_pattern_var x)) && Hashtbl.mem ctx.env.globals x)
      then
        errf ctx sp "unconstrained-fact" "fact is a bare unbound variable %s — it matches nothing"
          x
    | E_wild sp -> errf ctx sp "unconstrained-fact" "fact is a bare wildcard"
    | E_lit _ -> ())

(* [set]/[delete]/[unstable-cost] need a function-table application. *)
let check_table_app ctx scope what (l : Sexp.located) : fsig option =
  match l.node with
  | N_list ({ node = N_atom f; span = hsp } :: args) when not (Primitives.is_primitive f) -> (
    match find_func ctx.env f with
    | None ->
      errf ctx hsp "unknown-function" "unknown function or constructor %s" f;
      List.iter (fun a -> ignore (check_eval ctx scope (lexpr_of_loc a))) args;
      None
    | Some fs ->
      check_arity ctx l.span f (List.length fs.fs_args) (List.length args);
      List.iteri
        (fun i (a, s) ->
          let t = check_eval ctx scope (lexpr_of_loc a) in
          unify_or ctx a.Sexp.span ~expected:(Tsort s) ~actual:t
            (Printf.sprintf "argument %d of %s" (i + 1) f))
        (zip args fs.fs_args);
      Some fs)
  | _ ->
    errf ctx l.span "bad-action" "%s expects a function or constructor application" what;
    None

let check_laction ctx scope (l : Sexp.located) =
  let child i = match l.node with N_list xs -> List.nth_opt xs i | _ -> None in
  let head = match child 0 with Some { node = N_atom a; _ } -> Some a | _ -> None in
  match (head, l.node) with
  | Some "let", N_list [ _; { node = N_atom x; span = xsp }; e ] -> (
    let t = check_eval ctx scope (lexpr_of_loc e) in
    match scope with
    | Rule bound ->
      if Hashtbl.mem bound x then
        warnf ctx xsp "shadowed-binding" "rule-local let %s shadows an earlier binding" x;
      Hashtbl.replace bound x t
    | Top -> ())
  | Some "union", N_list [ _; a; b ] ->
    let ta = check_eval ctx scope (lexpr_of_loc a) in
    let tb = check_eval ctx scope (lexpr_of_loc b) in
    unify_or ctx b.span ~expected:ta ~actual:tb "union of incompatible sorts"
  | Some "set", N_list [ _; lhs; v ] -> (
    match check_table_app ctx scope "set" lhs with
    | Some fs ->
      let tv = check_eval ctx scope (lexpr_of_loc v) in
      unify_or ctx v.span ~expected:(Tsort fs.fs_ret) ~actual:tv "set value"
    | None -> ignore (check_eval ctx scope (lexpr_of_loc v)))
  | Some "unstable-cost", N_list [ _; e; c ] ->
    (match e.node with
    | N_list _ -> ignore (check_table_app ctx scope "unstable-cost" e)
    | _ -> ignore (check_eval ctx scope (lexpr_of_loc e)));
    let tc = check_eval ctx scope (lexpr_of_loc c) in
    unify_or ctx c.span ~expected:(Tsort "i64") ~actual:tc "unstable-cost cost"
  | Some "delete", N_list [ _; e ] -> ignore (check_table_app ctx scope "delete" e)
  | Some "panic", N_list [ _; { node = N_str _; _ } ] -> ()
  | _ -> ignore (check_eval ctx scope (lexpr_of_loc l))

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let children l = match l.Sexp.node with N_list xs -> xs | _ -> []

let child_or_self l i =
  match List.nth_opt (children l) i with Some c -> c | None -> l

let find_option_loc l key =
  let rec go = function
    | { Sexp.node = Sexp.N_atom a; _ } :: v :: _ when a = key -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (children l)

let check_sort_ref ctx span s =
  if not (Hashtbl.mem ctx.env.sorts s) then errf ctx span "unknown-sort" "unknown sort %s" s

let check_ruleset_ref ctx span = function
  | None -> ()
  | Some rs ->
    if not (Hashtbl.mem ctx.env.rulesets rs) then
      errf ctx span "unknown-ruleset" "unknown ruleset %s" rs

let declare_func ctx span name args ret cost =
  List.iter (check_sort_ref ctx span) args;
  check_sort_ref ctx span ret;
  match Hashtbl.find_opt ctx.env.funcs name with
  | Some fs when fs.fs_args = args && fs.fs_ret = ret ->
    (* identical redeclaration (e.g. a rules file repeating the prelude) *)
    ()
  | Some _ -> errf ctx span "redeclared" "function %s redeclared with a different signature" name
  | None -> Hashtbl.replace ctx.env.funcs name { fs_args = args; fs_ret = ret; fs_cost = cost }

(* extraction's cost fixpoint terminates only on costs >= 0, and reads a
   cost at the cap as "no finite term" *)
let check_cost ctx loc name cost =
  let sp () = match find_option_loc loc ":cost" with Some v -> v.Sexp.span | None -> loc.span in
  match cost with
  | Some c when c < 0 ->
    errf ctx (sp ()) "negative-cost" "%s has a negative :cost %d; extraction needs costs >= 0"
      name c
  | Some c when c >= Egraph.cost_cap ->
    errf ctx (sp ()) "cost-overflow" "%s has a :cost %d at or above the extraction cap %d" name
      c Egraph.cost_cap
  | _ -> ()

(* :merge expressions are evaluated by a tiny interpreter that only
   knows [old], [new], literals and primitives — anything else is
   rejected here instead of mid-saturation. *)
let rec scan_merge ctx (e : lexpr) =
  match e with
  | E_var _ | E_lit _ | E_wild _ -> ()
  | E_call (f, hsp, args, _) ->
    if Primitives.is_primitive f then List.iter (scan_merge ctx) args
    else if Hashtbl.mem ctx.env.funcs f then
      errf ctx hsp "bad-merge" "merge expressions support only primitives, old, new and literals (got %s)" f
    else List.iter (scan_merge ctx) args

let check_merge ctx cloc ret =
  match find_option_loc cloc ":merge" with
  | None -> ()
  | Some ml -> (
    match lexpr_of_loc ml with
    | le ->
      let bound = Hashtbl.create 4 in
      Hashtbl.replace bound "old" (Tsort ret);
      Hashtbl.replace bound "new" (Tsort ret);
      let t = check_eval ctx (Rule bound) le in
      unify_or ctx ml.span ~expected:(Tsort ret) ~actual:t "merge expression";
      scan_merge ctx le
    | exception Bad_syntax (sp, m) -> errf ctx sp "parse-error" "%s" m)

let check_located ctx (cmd : Ast.command) (cloc : Sexp.located) =
  let span = cloc.span in
  match cmd with
  | C_sort (name, None) -> (
    match Hashtbl.find_opt ctx.env.sorts name with
    | Some Plain | None -> Hashtbl.replace ctx.env.sorts name Plain
    | Some _ -> errf ctx span "redeclared" "sort %s redeclared with a different definition" name)
  | C_sort (name, Some ("Vec", [ elem ])) -> (
    check_sort_ref ctx span elem;
    match Hashtbl.find_opt ctx.env.sorts name with
    | Some (Vec_sort e) when e = elem -> ()
    | None -> Hashtbl.replace ctx.env.sorts name (Vec_sort elem)
    | Some _ -> errf ctx span "redeclared" "sort %s redeclared with a different definition" name)
  | C_sort (name, Some (container, _)) ->
    errf ctx span "unknown-sort" "unsupported container sort %s in declaration of %s" container
      name;
    if not (Hashtbl.mem ctx.env.sorts name) then Hashtbl.replace ctx.env.sorts name Plain
  | C_datatype (name, variants) ->
    (match Hashtbl.find_opt ctx.env.sorts name with
    | Some Plain | None -> Hashtbl.replace ctx.env.sorts name Plain
    | Some _ -> errf ctx span "redeclared" "sort %s redeclared with a different definition" name);
    let seen = Hashtbl.create 8 in
    List.iteri
      (fun i (v : Ast.variant) ->
        (* children of the command are [datatype; name; variant...] *)
        let vloc = Option.value (List.nth_opt (children cloc) (i + 2)) ~default:cloc in
        let vspan = vloc.Sexp.span in
        check_cost ctx vloc v.v_name v.v_cost;
        if Hashtbl.mem seen v.v_name then
          errf ctx vspan "duplicate-constructor"
            "constructor %s declared twice in datatype %s — the second declaration shadows the first"
            v.v_name name
        else Hashtbl.replace seen v.v_name ();
        declare_func ctx vspan v.v_name v.v_args name v.v_cost)
      variants
  | C_function d ->
    check_cost ctx cloc d.f_name d.f_cost;
    declare_func ctx span d.f_name d.f_args d.f_ret d.f_cost;
    if d.f_merge <> None then check_merge ctx cloc d.f_ret
  | C_relation (name, args) -> declare_func ctx span name args "Unit" None
  | C_let (x, _) ->
    let eloc = child_or_self cloc 2 in
    let t =
      match lexpr_of_loc eloc with
      | le -> check_eval ctx Top le
      | exception Bad_syntax (sp, m) ->
        errf ctx sp "parse-error" "%s" m;
        fresh ctx
    in
    if Hashtbl.mem ctx.env.globals x then
      errf ctx span "rebound-let" "global %s is already defined" x
    else Hashtbl.replace ctx.env.globals x t
  | C_ruleset name ->
    if Hashtbl.mem ctx.env.rulesets name then
      errf ctx span "redeclared" "ruleset %s already declared" name
    else Hashtbl.replace ctx.env.rulesets name ()
  | C_rewrite { bidirectional; ruleset; _ } ->
    let lhs_l = child_or_self cloc 1 and rhs_l = child_or_self cloc 2 in
    let cond_locs =
      match find_option_loc cloc ":when" with
      | Some { node = N_list facts; _ } -> facts
      | _ -> []
    in
    let rs_span =
      match find_option_loc cloc ":ruleset" with Some v -> v.span | None -> span
    in
    check_ruleset_ref ctx rs_span ruleset;
    let direction lhs_l rhs_l =
      let bound = Hashtbl.create 8 in
      let t_root = fresh ctx in
      (match lexpr_of_loc lhs_l with
      | E_call (f, hsp, _, _) as le ->
        if Primitives.is_primitive f then
          errf ctx hsp "bad-pattern"
            "rewrite left-hand side must be a function or constructor application, not primitive %s"
            f
        else check_pattern ctx bound le t_root
      | le ->
        errf ctx (lexpr_span le) "bad-pattern"
          "rewrite left-hand side must be a function or constructor application");
      List.iter (check_fact ctx bound) cond_locs;
      let t_rhs =
        match lexpr_of_loc rhs_l with le -> check_eval ctx (Rule bound) le
      in
      unify_or ctx rhs_l.span ~expected:t_root ~actual:t_rhs "rewrite right-hand side"
    in
    direction lhs_l rhs_l;
    if bidirectional then direction rhs_l lhs_l
  | C_rule { ruleset; name; _ } ->
    let fact_locs = children (child_or_self cloc 1) in
    let action_locs = children (child_or_self cloc 2) in
    let rs_span =
      match find_option_loc cloc ":ruleset" with Some v -> v.span | None -> span
    in
    check_ruleset_ref ctx rs_span ruleset;
    (match name with
    | Some n ->
      let n_span =
        match find_option_loc cloc ":name" with Some v -> v.span | None -> span
      in
      if Hashtbl.mem ctx.env.rule_names n then
        errf ctx n_span "duplicate-rule" "rule %S is already defined" n
      else Hashtbl.replace ctx.env.rule_names n ()
    | None -> ());
    let bound = Hashtbl.create 8 in
    List.iter (check_fact ctx bound) fact_locs;
    List.iter (check_laction ctx (Rule bound)) action_locs
  | C_action _ -> check_laction ctx Top cloc
  | C_run (_, ruleset) -> check_ruleset_ref ctx span ruleset
  | C_extract (_, _) -> ignore (check_eval ctx Top (lexpr_of_loc (child_or_self cloc 1)))
  | C_check _ ->
    let bound = Hashtbl.create 8 in
    List.iter (check_fact ctx bound) (List.tl (children cloc))
  | C_print_function (name, _) ->
    if find_func ctx.env name = None then
      errf ctx span "unknown-function" "unknown function or constructor %s" name
  | C_push ->
    ctx.env.pushed <- List.of_seq (Hashtbl.to_seq ctx.env.globals) :: ctx.env.pushed
  | C_pop -> (
    match ctx.env.pushed with
    | [] -> errf ctx span "pop-without-push" "pop without a matching push"
    | globals :: rest ->
      Hashtbl.reset ctx.env.globals;
      List.iter (fun (x, t) -> Hashtbl.replace ctx.env.globals x t) globals;
      ctx.env.pushed <- rest)
  | C_print_stats -> ()

let check_located_safe ctx cmd cloc =
  try check_located ctx cmd cloc with
  | Bad_syntax (sp, m) -> errf ctx sp "parse-error" "%s" m
  | Parser.Error m -> errf ctx cloc.Sexp.span "parse-error" "%s" m

let finish ctx = Diag.dedup (List.rev ctx.diags)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check_read ?file ~env (program : Parser.program) :
    Diag.t list * (Ast.command * Sexp.located) list option =
  let ctx = { env; file; diags = []; next = 0 } in
  let cmds =
    match program with
    | Parser.Forms forms ->
      List.fold_left
        (fun acc { Parser.f_loc = loc; f_cmd } ->
          match f_cmd with
          | Ok cmd ->
            check_located_safe ctx cmd loc;
            Option.map (fun cmds -> (cmd, loc) :: cmds) acc
          | Error (Parser.Error m | Failure m) ->
            errf ctx loc.Sexp.span "parse-error" "%s" m;
            None
          | Error e -> raise e)
        (Some []) forms
      |> Option.map List.rev
    | Parser.Unreadable { line; col; msg } ->
      let pos = { Sexp.line; col } in
      errf ctx { sp_start = pos; sp_end = pos } "parse-error" "%s" msg;
      None
  in
  (finish ctx, cmds)

let check_program ?file ~env src = fst (check_read ?file ~env (Parser.read src))
