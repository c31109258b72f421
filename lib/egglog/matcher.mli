(** E-matching: finding all substitutions under which a rule's premises
    hold in the current e-graph.

    There is one matcher, the generic join.  {!compile} flattens a rule's
    premises once; {!gcompile} turns the flattened premises into flat
    table atoms — each column a variable, a literal, a global, or a
    wildcard — plus residual facts over primitives only.  {!gsolve} joins
    the atoms variable by variable over per-(function, column) indexes of
    the arena tables, seminaively: one term per atom, the term's atom
    scans only the rows stamped after a given timestamp (the delta), atoms
    before it only older rows and atoms after it the full table, so every
    row combination is derived by exactly one term.  The residuals then
    run over the decoded environments, each once what it evaluates is
    bound (premise order unless one binds what an earlier one reads). *)

exception Error of string

module Env : Map.S with type key = string

type env = Value.t Env.t

type index

(** Build a matching index over the e-graph.  O(1); column indexes are
    built lazily on first probe and kept up to date incrementally.
    [globals] are the interpreter's top-level let-bindings. *)
val make_index : Egraph.t -> (string, Value.t) Hashtbl.t -> index

(** Value of an {!Ast.lit}. *)
val value_of_lit : Ast.lit -> Value.t

(** Is [name] a pattern variable ([?x])?  Only a bare name can resolve to
    a global. *)
val is_pattern_var : string -> bool

(** {1 Plans} *)

(** A flattened rule body: nested table applications hoisted into facts
    of their own.  The fact order and aux-variable names fix the join's
    term order. *)
type plan

(** Flatten a premise list.  Total; the interpreter flattens a rule
    when it first compiles it. *)
val compile : Ast.fact list -> plan

(** A rule body compiled for the worst-case-optimal generic join: flat
    table atoms joined variable-by-variable over per-(function, column)
    indexes of the arena tables, plus pure-primitive residual facts
    evaluated on the decoded environments afterwards. *)
type gplan

(** Compile a plan for the generic join.  Every premise shape compiles:
    globals in pattern slots are pinned per search, primitive calls and
    [vec-of] in slots become residuals on fresh variables, table
    applications under primitives become atoms, and an equality over
    several table applications shares one output column.  [keep] names
    the variables the consumer reads (default: all).  Raises {!Error} on
    an unknown function or an arity mismatch. *)
val gcompile : ?keep:string list -> index -> plan -> gplan

(** {1 Search} *)

(** Seminaive solve: environments satisfying the plan that involve at
    least one row stamped strictly after [since] ([~since:-1] is the full
    join).  A plan with no atoms yields one environment for its residuals
    to test, on the full search only. *)
val gsolve : index -> gplan -> since:int -> env list

(** Canonical codes of the globals the plan's premises name, as of now.
    A rule whose pins changed since its last search must search in full:
    rows that did not change can match a global whose class merged. *)
val pins : index -> gplan -> int array

(** Whether {!gsolve_packed} may be used for this plan: no residual facts
    and no wildcard columns (those need env-level dedupe). *)
val gp_packed_ok : gplan -> bool

(** The emitted variables' names, in packed-row slot order. *)
val gp_slot_names : gplan -> string array

(** The sort of each packed-row slot. *)
val gp_slot_sorts : index -> gplan -> Egraph.sort_kind array

(** Packed matches: [pk_rows] consecutive rows of [pk_width] arena
    codes, row-major in [pk_buf], in discovery order. *)
type packed = { pk_buf : int array; pk_rows : int; pk_width : int }

(** Like {!gsolve} but the matches land in one flat row-major code
    buffer in {!gp_slot_names} slot order — no environment maps, no
    decoding and no per-match allocation, so appliers compiled against
    the slot order work at the code level end to end.  Only valid when
    {!gp_packed_ok}. *)
val gsolve_packed : index -> gplan -> since:int -> packed

(** Every binding of the premises' own variables (compiler aux variables
    dropped, duplicates removed), through the full join of a fresh plan —
    what [(check ...)] and the match-set oracles ask. *)
val query : index -> Ast.fact list -> env list
