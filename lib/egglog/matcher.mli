(** E-matching: finding all substitutions under which a rule's premises
    hold in the current e-graph.

    There is one matcher, a nested-loop join.  {!gcompile} compiles a
    rule's premises in one pass into flat table atoms — each column a
    variable, a literal, a global, or a wildcard, nested table
    applications hoisted into atoms of their own — plus residual facts
    over primitives only.  {!gsolve_packed} joins the atoms seminaively:
    one term per atom, the term's atom reads only the rows stamped after
    a given timestamp (the delta), atoms before it only older rows and
    atoms after it the full table, so every row combination is derived by
    exactly one term.  Each term walks its
    atoms in an order fixed by the plan: the delta atom, then each atom
    whose arguments are all bound (one lookup in the table's own key
    hash), then atoms probed through a per-(function, column) index on a
    bound column, the output column first, then scans.  The matches are
    rows of arena codes: one per distinct assignment of the variables that
    occur twice or more, times the rows of each atom that binds a variable
    the consumer reads and no other atom mentions.  The caller's compiled
    residuals run on each row, in the order {!gp_residuals} gives (premise
    order unless one binds what an earlier one reads). *)

exception Error of string

type index

(** Build a matching index over the e-graph.  O(1); column indexes are
    built lazily on first probe and kept up to date incrementally.
    [globals] are the interpreter's top-level let-bindings. *)
val make_index : Egraph.t -> (string, Value.t) Hashtbl.t -> index

(** Value of an {!Ast.lit}. *)
val value_of_lit : Ast.lit -> Value.t

(** Is [name] a pattern variable ([?x])?  Only a bare name can denote a
    global. *)
val is_pattern_var : string -> bool

(** {1 Plans} *)

(** A rule body compiled for the join: flat table atoms, the atom order
    of each seminaive term, plus pure-primitive residual facts the caller
    runs on each packed row. *)
type gplan

(** Compile a premise list for the join, in one pass.  Every premise
    shape compiles: the [pinned] bare names denote globals, pinned per
    search; a table application nested in another's column becomes an
    atom on a fresh variable, placed before its parent when every
    variable in it occurs in an earlier premise (innermost first, one atom
    per distinct such application) and after it otherwise (each parent
    before its children, siblings left to right); primitive calls and
    [vec-of] in columns become residuals on fresh variables, table
    applications under primitives become atoms, and an equality over
    several table applications shares one output column.  The atom order
    fixes the seminaive terms and so the order matches come out in.
    [keep] names the variables the consumer reads (default: all).  Raises
    {!Error} on an unknown function or an arity mismatch. *)
val gcompile : ?keep:string list -> pinned:string list -> index -> Ast.fact list -> gplan

(** The same plan, with search scratch of its own.  A plan names tables
    by symbol and holds literal codes of the pool it was compiled
    against, and its terms' atom orders, which every instance shares; its
    scratch holds the tables and column indexes of the last e-graph it
    searched, the binding array and the match buffers.  So an engine that
    copied that pool (a fork) searches its own instance, and the compiled
    plan holds no engine's rows. *)
val gp_instance : gplan -> gplan

(** {1 Search} *)

(** Canonical codes of the globals the plan's premises name, as of now.
    A rule whose pins changed since its last search must search in full:
    rows that did not change can match a global whose class merged. *)
val pins : index -> gplan -> int array

(** The residual facts, in the order they run on each packed row.  Every
    table application in them has been hoisted into an atom. *)
val gp_residuals : gplan -> Ast.fact list

(** The packed-row slots' variable names: the variables the join emits,
    then one per variable a residual binds. *)
val gp_slot_names : gplan -> string array

(** The sort of each packed-row slot; [None] for a residual-bound one. *)
val gp_slot_sorts : index -> gplan -> Egraph.sort_kind option array

(** The packed-row slots of the premises' own variables (the compiler's
    aux variables left out). *)
val gp_own_slots : gplan -> int array

(** Packed matches: [pk_rows] consecutive rows of [pk_width] arena
    codes, row-major in [pk_buf], in discovery order.  [pk_buf] is the
    plan instance's own buffer, valid until its next search. *)
type packed = { pk_buf : int array; pk_rows : int; pk_width : int }

(** Seminaive solve: the matches that involve at least one row stamped
    strictly after [since] ([~since:-1] is the full join), as rows of
    arena codes in {!gp_slot_names} order, with no allocation per row or
    match on a plan without residuals, wildcard argument columns or
    emitted aux variables once its buffers have grown to fit.  A plan with
    residuals runs [residual] on each join row after the join; it fills
    the residual-bound slots (each [-1] until then) and says whether the
    row is kept.  Rows that repeat a kept row's join codes (possible
    through wildcard argument columns), or its own variables' codes once aux
    variables are emitted, are dropped.  A plan with no atoms has one
    (empty) join row, on the full search only. *)
val gsolve_packed :
  index -> gplan -> since:int -> residual:(int array -> bool) -> packed
