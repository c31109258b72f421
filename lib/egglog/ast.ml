(** Abstract syntax of the Egglog command language (the subset used by the
    DialEgg paper, plus a few conveniences).

    Supported commands:
    {ul
    {- [(sort S)] and [(sort S (Vec T))] — declare sorts;}
    {- [(datatype S variants...)] — sort plus constructors, each with an
       optional [:cost];}
    {- [(function f (args...) ret :cost n :merge e)] — functions;}
    {- [(relation r (args...))] — function returning [unit];}
    {- [(let x e)] — global binding;}
    {- [(rewrite lhs rhs :when (facts...))] and [(birewrite ...)];}
    {- [(rule (facts...) (actions...))];}
    {- [(union a b)], [(set (f args) v)], [(unstable-cost e c)], [(delete (f args))] — actions,
       also usable at top level;}
    {- [(ruleset name)] — declare a ruleset; rules join one with
       [:ruleset]; [(run n name)] runs only that ruleset;}
    {- [(run n)] — run the default ruleset for at most [n] iterations;}
    {- [(extract e)] — extract the lowest-cost term of [e]'s class;}
    {- [(check facts...)] — assert that facts are satisfiable;}
    {- [(push)] / [(pop)] — snapshot / restore the entire engine state.}} *)

type lit =
  | L_i64 of int64
  | L_f64 of float
  | L_string of string
  | L_bool of bool
  | L_unit

type expr =
  | Var of string  (** [?x] pattern variable, or a let-bound name in expression position *)
  | Wildcard  (** [?] or [_]: matches anything, binds nothing *)
  | Lit of lit
  | Call of string * expr list  (** constructor, table or primitive application *)

type fact =
  | F_eq of expr list  (** [(= e1 e2 ...)]: all exprs evaluate/match to the same value *)
  | F_expr of expr  (** pattern to match, or boolean guard *)

type action =
  | A_let of string * expr  (** rule-local binding *)
  | A_union of expr * expr
  | A_set of expr * expr  (** [(set (f args) value)] *)
  | A_expr of expr  (** evaluate for effect: inserts terms into the e-graph *)
  | A_cost of expr * expr  (** [(unstable-cost enode cost)] — the paper's extension *)
  | A_delete of expr  (** [(delete (f args))] *)
  | A_panic of string

type variant = { v_name : string; v_args : string list; v_cost : int option }

type func_decl = {
  f_name : string;
  f_args : string list;  (** argument sort names *)
  f_ret : string;  (** return sort name *)
  f_cost : int option;  (** extraction cost of this constructor *)
  f_merge : expr option;  (** merge expression using [old] and [new] *)
  f_unextractable : bool;
}

type command =
  | C_sort of string * (string * string list) option
      (** [(sort S)] or [(sort S (Container args))] *)
  | C_datatype of string * variant list
  | C_function of func_decl
  | C_relation of string * string list
  | C_let of string * expr
  | C_ruleset of string  (** declare a named ruleset *)
  | C_rewrite of {
      lhs : expr;
      rhs : expr;
      conds : fact list;
      bidirectional : bool;
      ruleset : string option;
    }
  | C_rule of {
      name : string option;
      facts : fact list;
      actions : action list;
      ruleset : string option;
    }
  | C_action of action
  | C_run of int * string option  (** iteration limit, optional ruleset *)
  | C_extract of expr * int  (** expression, number of variants (normally 1) *)
  | C_check of fact list
  | C_print_function of string * int
  | C_print_stats
  | C_push
  | C_pop

(* ------------------------------------------------------------------ *)
(* Pretty-printing back to concrete syntax                             *)
(* ------------------------------------------------------------------ *)

let rec sexp_of_expr (e : expr) : Sexp.t =
  match e with
  | Var x -> Atom x (* pattern variables carry their '?' prefix in the name *)
  | Wildcard -> Atom "_"
  | Lit (L_i64 n) -> Atom (Int64.to_string n)
  | Lit (L_f64 f) ->
    (* print floats so they read back as floats *)
    let s = Printf.sprintf "%.17g" f in
    let s = if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s else s ^ ".0" in
    Atom s
  | Lit (L_string s) -> Str s
  | Lit (L_bool b) -> Atom (if b then "true" else "false")
  | Lit L_unit -> List []
  | Call (f, args) -> List (Atom f :: List.map sexp_of_expr args)

let sexp_of_fact = function
  | F_eq exprs -> Sexp.List (Atom "=" :: List.map sexp_of_expr exprs)
  | F_expr e -> sexp_of_expr e

let sexp_of_action = function
  | A_let (x, e) -> Sexp.List [ Atom "let"; Atom x; sexp_of_expr e ]
  | A_union (a, b) -> Sexp.List [ Atom "union"; sexp_of_expr a; sexp_of_expr b ]
  | A_set (lhs, v) -> Sexp.List [ Atom "set"; sexp_of_expr lhs; sexp_of_expr v ]
  | A_expr e -> sexp_of_expr e
  | A_cost (e, c) -> Sexp.List [ Atom "unstable-cost"; sexp_of_expr e; sexp_of_expr c ]
  | A_delete e -> Sexp.List [ Atom "delete"; sexp_of_expr e ]
  | A_panic msg -> Sexp.List [ Atom "panic"; Str msg ]

let sexp_of_command (c : command) : Sexp.t =
  let atom a = Sexp.Atom a in
  let sorts l = List.map atom l in
  match c with
  | C_sort (name, None) -> List [ atom "sort"; atom name ]
  | C_sort (name, Some (container, args)) ->
    List [ atom "sort"; atom name; List (atom container :: sorts args) ]
  | C_datatype (name, variants) ->
    let variant v =
      match (v.v_args, v.v_cost) with
      | [], None -> atom v.v_name
      | args, cost ->
        let c = match cost with None -> [] | Some n -> [ atom ":cost"; atom (string_of_int n) ] in
        Sexp.List ((atom v.v_name :: sorts args) @ c)
    in
    List (atom "datatype" :: atom name :: List.map variant variants)
  | C_function d ->
    let opts =
      (match d.f_cost with None -> [] | Some n -> [ atom ":cost"; atom (string_of_int n) ])
      @ (match d.f_merge with None -> [] | Some e -> [ atom ":merge"; sexp_of_expr e ])
      @ if d.f_unextractable then [ atom ":unextractable"; List [] ] else []
    in
    List ([ atom "function"; atom d.f_name; Sexp.List (sorts d.f_args); atom d.f_ret ] @ opts)
  | C_relation (name, args) -> List [ atom "relation"; atom name; List (sorts args) ]
  | C_let (x, e) -> List [ atom "let"; atom x; sexp_of_expr e ]
  | C_ruleset name -> List [ atom "ruleset"; atom name ]
  | C_rewrite { lhs; rhs; conds; bidirectional; ruleset } ->
    let head = if bidirectional then "birewrite" else "rewrite" in
    let opts =
      (match conds with [] -> [] | _ -> [ atom ":when"; Sexp.List (List.map sexp_of_fact conds) ])
      @ match ruleset with None -> [] | Some r -> [ atom ":ruleset"; atom r ]
    in
    List ([ atom head; sexp_of_expr lhs; sexp_of_expr rhs ] @ opts)
  | C_rule { name; facts; actions; ruleset } ->
    let opts =
      (match name with None -> [] | Some n -> [ atom ":name"; Sexp.Str n ])
      @ match ruleset with None -> [] | Some r -> [ atom ":ruleset"; atom r ]
    in
    List
      ([ atom "rule"; Sexp.List (List.map sexp_of_fact facts);
         Sexp.List (List.map sexp_of_action actions) ]
      @ opts)
  | C_action a -> sexp_of_action a
  | C_run (n, None) when n = max_int -> List [ atom "run" ]
  | C_run (n, None) -> List [ atom "run"; atom (string_of_int n) ]
  | C_run (n, Some r) -> List [ atom "run"; atom r; atom (string_of_int n) ]
  | C_extract (e, variants) ->
    let v = if variants = 1 then [] else [ atom ":variants"; atom (string_of_int variants) ] in
    List ([ atom "extract"; sexp_of_expr e ] @ v)
  | C_check facts -> List (atom "check" :: List.map sexp_of_fact facts)
  | C_print_function (name, n) ->
    List [ atom "print-function"; atom name; atom (string_of_int n) ]
  | C_print_stats -> List [ atom "print-stats" ]
  | C_push -> List [ atom "push" ]
  | C_pop -> List [ atom "pop" ]

let pp_expr ppf e = Sexp.pp ppf (sexp_of_expr e)
let pp_fact ppf f = Sexp.pp ppf (sexp_of_fact f)
