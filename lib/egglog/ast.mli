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

(** {1 Pretty-printing back to concrete syntax} *)

val sexp_of_expr : expr -> Sexp.t
val sexp_of_fact : fact -> Sexp.t
val sexp_of_action : action -> Sexp.t
val sexp_of_command : command -> Sexp.t

val pp_expr : Format.formatter -> expr -> unit
val pp_fact : Format.formatter -> fact -> unit
