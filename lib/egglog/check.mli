(** Static sort-checker for Egglog programs.

    Infers the sort of every expression against declared
    datatype/function/relation/primitive signatures, tracks pattern
    variable binding with the matcher's left-to-right discipline, and
    reports violations as structured {!Diag.t} values: unknown symbols,
    arity mismatches, sort conflicts, variables used on a rewrite RHS or
    in actions without being bound, wildcards in evaluated position,
    rebound or unknown [let] names, references to undeclared rulesets,
    duplicate [:name]d rules and duplicate datatype constructors.  See
    [check.ml] for the full list of diagnostic codes. *)

(** A function (or constructor, or relation) signature as declared. *)
type fsig = {
  fs_args : string list;  (** argument sort names *)
  fs_ret : string;  (** return sort name *)
  fs_cost : int option;
}

(** A mutable checking environment: sorts, function signatures, global
    lets and rulesets declared so far, and the [(push)]es still open.
    Checking a program extends it, so a prelude can be checked once and
    reused via {!copy_env}, and a [(pop)] may close a [(push)] from an
    earlier check. *)
type env

(** An environment with only the builtin sorts (i64, f64, String, bool,
    Unit). *)
val create_env : unit -> env

(** An independent copy: checking against it never affects the source. *)
val copy_env : env -> env

val find_func : env -> string -> fsig option

val iter_funcs : env -> (string -> fsig -> unit) -> unit

(** Check a program read once with locations ({!Parser.read}).  Returns
    the diagnostics and each command paired with the located
    s-expression it was read from; the commands are [None] when some
    command fails to parse (exactly when {!Parser.commands} raises).
    Never raises on unparsable input: it becomes [parse-error]
    diagnostics.  Declarations (even erroneous ones, best-effort) are
    recorded in [env]. *)
val check_read :
  ?file:string ->
  env:env ->
  Parser.program ->
  Diag.t list * (Ast.command * Sexp.located) list option

(** The diagnostics of {!check_read} on a program read from source
    text. *)
val check_program : ?file:string -> env:env -> string -> Diag.t list
