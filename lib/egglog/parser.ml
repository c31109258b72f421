(** Parser from s-expressions to the Egglog command AST.

    Atom interpretation:
    - [?name] is a pattern variable; bare [?] or [_] is a wildcard;
    - integer-looking atoms are [i64] literals, float-looking atoms are
      [f64] literals;
    - [true] / [false] are booleans;
    - any other atom is a name: in expression position it refers to a
      let-binding (rule-local or global) and is represented as [Var] —
      the interpreter resolves it;
    - a list [(f a b ...)] is a call. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let is_int_atom s =
  s <> ""
  &&
  let i = if s.[0] = '-' || s.[0] = '+' then 1 else 0 in
  i < String.length s
  &&
  let ok = ref true in
  String.iteri (fun j c -> if j >= i && not (c >= '0' && c <= '9') then ok := false) s;
  !ok

let is_float_atom s =
  match float_of_string_opt s with
  | Some _ -> (String.contains s '.' || String.contains s 'e' || String.contains s 'E'
               || s = "inf" || s = "-inf" || s = "nan")
  | None -> false

let rec expr_of_sexp (s : Sexp.t) : Ast.expr =
  match s with
  | Str str -> Lit (L_string str)
  | Atom "_" | Atom "?" -> Wildcard
  (* note: '?'-prefixed names keep their prefix, so pattern variables can
     never collide with global let-binding names *)
  | Atom "true" -> Lit (L_bool true)
  | Atom "false" -> Lit (L_bool false)
  | Atom a when is_int_atom a -> Lit (L_i64 (Int64.of_string a))
  | Atom a when is_float_atom a -> Lit (L_f64 (float_of_string a))
  | Atom a -> Var a (* name reference; resolved against bindings at runtime *)
  | List [] -> Lit L_unit
  | List (Atom f :: args) -> Call (f, List.map expr_of_sexp args)
  | List (s :: _) -> error "head of application must be an atom, got %a" Sexp.pp s

let fact_of_sexp (s : Sexp.t) : Ast.fact =
  match s with
  | List (Atom "=" :: args) when List.length args >= 2 ->
    F_eq (List.map expr_of_sexp args)
  | _ -> F_expr (expr_of_sexp s)

let rec action_of_sexp (s : Sexp.t) : Ast.action =
  match s with
  | List [ Atom "let"; Atom x; e ] -> A_let (x, expr_of_sexp e)
  | List [ Atom "union"; a; b ] -> A_union (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "set"; lhs; v ] -> A_set (expr_of_sexp lhs, expr_of_sexp v)
  | List [ Atom "unstable-cost"; e; c ] -> A_cost (expr_of_sexp e, expr_of_sexp c)
  | List [ Atom "delete"; e ] -> A_delete (expr_of_sexp e)
  | List [ Atom "panic"; Str msg ] -> A_panic msg
  | List (Atom "seq" :: _) -> error "seq actions are not supported"
  | _ -> A_expr (expr_of_sexp s)

and actions_of_sexps l = List.map action_of_sexp l

let sort_name = function
  | Sexp.Atom a -> a
  | s -> error "expected a sort name, got %a" Sexp.pp s

(* Parse trailing keyword options like :cost 2 :when (...) *)
let rec split_options (l : Sexp.t list) : Sexp.t list * (string * Sexp.t) list =
  match l with
  | Sexp.Atom k :: v :: rest when String.length k > 0 && k.[0] = ':' ->
    let args, opts = split_options rest in
    (args, (k, v) :: opts)
  | x :: rest ->
    let args, opts = split_options rest in
    (x :: args, opts)
  | [] -> ([], [])

let opt_cost opts =
  match List.assoc_opt ":cost" opts with
  | None -> None
  | Some (Sexp.Atom a) when is_int_atom a -> Some (int_of_string a)
  | Some s -> error "invalid :cost %a" Sexp.pp s

let opt_name key opts =
  match List.assoc_opt key opts with
  | Some (Sexp.Str s) | Some (Sexp.Atom s) -> Some s
  | None -> None
  | Some s -> error "invalid %s %a" key Sexp.pp s

let variant_of_sexp (s : Sexp.t) : Ast.variant =
  match s with
  | List (Atom name :: rest) ->
    let args, opts = split_options rest in
    { v_name = name; v_args = List.map sort_name args; v_cost = opt_cost opts }
  | Atom name -> { v_name = name; v_args = []; v_cost = None }
  | _ -> error "invalid datatype variant %a" Sexp.pp s

let command_of_sexp (s : Sexp.t) : Ast.command =
  match s with
  | List [ Atom "sort"; Atom name ] -> C_sort (name, None)
  | List [ Atom "sort"; Atom name; List (Atom container :: args) ] ->
    C_sort (name, Some (container, List.map sort_name args))
  | List (Atom "datatype" :: Atom name :: variants) ->
    C_datatype (name, List.map variant_of_sexp variants)
  | List (Atom "function" :: Atom name :: List args :: ret :: rest) ->
    let (), opts =
      match split_options rest with
      | [], opts -> ((), opts)
      | extra, _ -> error "unexpected tokens in function decl: %a" Sexp.pp (List extra)
    in
    C_function
      {
        f_name = name;
        f_args = List.map sort_name args;
        f_ret = sort_name ret;
        f_cost = opt_cost opts;
        f_merge = Option.map expr_of_sexp (List.assoc_opt ":merge" opts);
        f_unextractable = List.mem_assoc ":unextractable" opts;
      }
  | List [ Atom "relation"; Atom name; List args ] ->
    C_relation (name, List.map sort_name args)
  | List [ Atom "let"; Atom x; e ] -> C_let (x, expr_of_sexp e)
  | List [ Atom "ruleset"; Atom name ] -> C_ruleset name
  | List (Atom ("rewrite" | "birewrite") :: lhs :: rhs :: rest) ->
    let bidirectional =
      match s with List (Atom "birewrite" :: _) -> true | _ -> false
    in
    let extra, opts = split_options rest in
    if extra <> [] then error "unexpected tokens in rewrite: %a" Sexp.pp (List extra);
    let conds =
      match List.assoc_opt ":when" opts with
      | None -> []
      | Some (List facts) -> List.map fact_of_sexp facts
      | Some s -> error ":when expects a list of facts, got %a" Sexp.pp s
    in
    let ruleset = opt_name ":ruleset" opts in
    C_rewrite
      { lhs = expr_of_sexp lhs; rhs = expr_of_sexp rhs; conds; bidirectional; ruleset }
  | List (Atom "rule" :: List facts :: List actions :: rest) ->
    let extra, opts = split_options rest in
    if extra <> [] then error "unexpected tokens in rule: %a" Sexp.pp (List extra);
    let name = opt_name ":name" opts in
    let ruleset = opt_name ":ruleset" opts in
    C_rule
      { name; facts = List.map fact_of_sexp facts; actions = actions_of_sexps actions; ruleset }
  | List [ Atom "run"; Atom n ] when is_int_atom n -> C_run (int_of_string n, None)
  | List [ Atom "run"; Atom rs; Atom n ] when is_int_atom n ->
    C_run (int_of_string n, Some rs)
  | List [ Atom "run"; Atom n; Atom rs ] when is_int_atom n ->
    C_run (int_of_string n, Some rs)
  | List [ Atom "run" ] -> C_run (max_int, None)
  | List [ Atom "extract"; e ] -> C_extract (expr_of_sexp e, 1)
  | List (Atom "extract" :: e :: rest) -> (
    match split_options rest with
    | [], opts -> (
      match List.assoc_opt ":variants" opts with
      | Some (Sexp.Atom n) when is_int_atom n -> C_extract (expr_of_sexp e, int_of_string n)
      | _ -> error "extract takes an expression and optional :variants n")
    | [ Sexp.Atom n ], [] when is_int_atom n -> C_extract (expr_of_sexp e, int_of_string n)
    | _ -> error "extract takes an expression and optional :variants n")
  | List (Atom "check" :: facts) -> C_check (List.map fact_of_sexp facts)
  | List [ Atom "print-function"; Atom name; Atom n ] when is_int_atom n ->
    C_print_function (name, int_of_string n)
  | List [ Atom "print-stats" ] -> C_print_stats
  | List [ Atom "push" ] -> C_push
  | List [ Atom "pop" ] -> C_pop
  | List (Atom ("union" | "set" | "unstable-cost" | "delete" | "panic") :: _) ->
    C_action (action_of_sexp s)
  | _ -> C_action (A_expr (expr_of_sexp s))

type form = { f_loc : Sexp.located; f_cmd : (Ast.command, exn) result }
type program = Forms of form list | Unreadable of { line : int; col : int; msg : string }

let read (src : string) : program =
  match Sexp.parse_string_loc src with
  | locs ->
    Forms
      (List.map
         (fun loc ->
           { f_loc = loc; f_cmd = (try Ok (command_of_sexp (Sexp.strip loc)) with e -> Error e) })
         locs)
  | exception Sexp.Parse_error { line; col; msg; _ } -> Unreadable { line; col; msg }

let commands = function
  | Unreadable { line; msg; _ } -> error "line %d: %s" line msg
  | Forms forms -> List.map (fun f -> match f.f_cmd with Ok c -> c | Error e -> raise e) forms

(** Parse a whole Egglog program from source text. *)
let parse_program (src : string) : Ast.command list = commands (read src)
