(** Parser from Egglog source text (s-expressions) to the command AST.

    Atom interpretation: [?name] is a pattern variable (the prefix is kept
    in the {!Ast.expr.Var} name, so pattern variables can never collide
    with let-binding names); integer- and float-looking atoms are
    literals; [true]/[false] are booleans; any other atom is a name
    resolved against bindings at run time. *)

exception Error of string

(** Parse a whole program: the commands of {!read}, raising {!Error} at
    the first form that does not read. *)
val parse_program : string -> Ast.command list

(** One top-level form of a program: the located s-expression, and the
    command it reads as or what {!command_of_sexp} raised on it. *)
type form = { f_loc : Sexp.located; f_cmd : (Ast.command, exn) result }

(** A program read once, for every consumer: the sort-checker (which
    reports each form that does not read as a command) and the
    interpreter ({!commands}).  [Unreadable] is a source that is not a
    sequence of s-expressions. *)
type program = Forms of form list | Unreadable of { line : int; col : int; msg : string }

(** Read a program.  A source or a form that does not read is recorded,
    not raised. *)
val read : string -> program

(** The commands of a program read by {!read}; raises what reading the
    first form that does not read raised ([Error "line N: …"] for an
    unreadable source). *)
val commands : program -> Ast.command list

(** Convert one parsed s-expression. *)
val command_of_sexp : Sexp.t -> Ast.command

val expr_of_sexp : Sexp.t -> Ast.expr

(** Atom classification used for literals (exposed for the checker). *)
val is_int_atom : string -> bool

val is_float_atom : string -> bool
