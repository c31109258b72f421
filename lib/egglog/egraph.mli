(** The e-graph, represented as a functional database (the Egglog model).

    Every Egglog function — including datatype constructors — is a {e table}
    mapping a tuple of argument values to one output value.  Constructors
    are tables whose output sort is an equivalence sort: a lookup miss
    allocates a fresh e-class, making the table a hash-cons.  An e-node is
    a table row; congruence closure is table re-canonicalization
    ({!rebuild}) after unions.

    Every table is a flat {!Arena} of int codes, appended in stamp order
    so the table doubles as its own seminaive journal. *)

exception Error of string

(** Sorts: built-in primitives, user equivalence sorts, and vector
    containers. *)
type sort_kind =
  | S_i64
  | S_f64
  | S_string
  | S_bool
  | S_unit
  | S_eq of string  (** user-declared equivalence sort *)
  | S_vec of string  (** vector container; payload is the element sort name *)

val pp_sort_kind : Format.formatter -> sort_kind -> unit

(** The storage engine.  The flat arena is the only one; the type is kept
    so that callers written against the old two-engine API, such as
    [perfbench/replica.ml] passing [Interp.create ~engine], still build. *)
type engine = Arena

(** A function table.  [cost] and [unextractable] drive extraction;
    [merge] reconciles conflicting primitive outputs for one key. *)
type func = private {
  sym : Symbol.t;
  arg_sorts : sort_kind array;
  ret_sort : sort_kind;
  cost : int option;
  unextractable : bool;
  merge : (Value.t -> Value.t -> Value.t) option;
  store : Arena.table;
  mutable last_modified : int;
      (** stamp of the last change to this table that can give a rule a
          new match (insert, output change, delete, canonicalization; not
          a congruence merge into a row whose output stays) — drives
          dirty-table rule skipping and the seminaive terms the matcher
          runs *)
}

(** Is the function's output an equivalence sort (i.e. is it a
    constructor)? *)
val is_constructor : func -> bool

type t = {
  uf : Union_find.t;
  pool : Arena.pool;
  funcs : func Symbol.Tbl.t;
  mutable funcs_rev : Symbol.t list;
      (** newest declaration first; a declaration conses onto it, so a
          {!copy} that declared nothing still has the original's list *)
  sorts : (string, sort_kind) Hashtbl.t;
  costs : int Arena.Codes_tbl.t Symbol.Tbl.t;
      (** unstable-cost overrides: per function, the canonical key codes
          of an e-node -> its cost; re-canonicalized by {!rebuild}, which
          keeps the cheaper cost when two keys collide *)
  mutable clock : int;
  mutable n_unions : int;
  mutable immediate_rebuild : bool;
      (** ablation flag: rebuild after every union instead of deferring *)
  mutable pending_unions : bool;
      (** a union happened since the last {!rebuild}; when false the tables
          are canonical and rebuild is O(1) *)
  mutable n_rows_cache : int;
      (** exact live row count, maintained incrementally — {!n_nodes} *)
}

(** An empty e-graph. *)
val create : unit -> t

val pool : t -> Arena.pool
val uf : t -> Union_find.t

(** Monotonic change counter; equal clocks mean "nothing changed". *)
val clock : t -> int

(** {1 Declarations} *)

val find_sort : t -> string -> sort_kind
val sort_declared : t -> string -> bool

(** Declare an equivalence sort.  Like {!Check}, the declaration functions
    treat a repeated declaration (same kind of sort, same element sort,
    same argument and return sorts) as a no-op, so a rules file may
    repeat the prelude.
    @raise Error if the name is already declared as something else. *)
val declare_sort : t -> string -> unit

(** [(sort name (Vec elem))] *)
val declare_vec_sort : t -> string -> string -> unit

(** The extractor's cost cap: costs sum saturating here, and a base cost
    at or above it ([:cost] or [unstable-cost]) is rejected as
    [cost-overflow]. *)
val cost_cap : int

(** Declare a function table; [args] and [ret] are sort names.  A
    redeclaration returns the existing table unchanged.
    @raise Error if [cost] is negative or at least {!cost_cap}. *)
val declare_function :
  t ->
  name:string ->
  args:string list ->
  ret:string ->
  cost:int option ->
  merge:(Value.t -> Value.t -> Value.t) option ->
  unextractable:bool ->
  func

val find_func : t -> Symbol.t -> func
val find_func_opt : t -> Symbol.t -> func option

(** All declared functions, in declaration order. *)
val functions : t -> func list

(** {1 Core operations} *)

(** Canonicalize a value against the current union-find. *)
val canon : t -> Value.t -> Value.t

val canon_args : t -> Value.t array -> Value.t array
val find_class : t -> int -> int

(** Allocate a fresh, empty e-class. *)
val fresh_class : t -> int

(** Restore congruence: re-canonicalize all tables to a fixed point, then
    compact arena tables so searches only see dense live rows.  O(1) when
    no union is pending. *)
val rebuild : t -> unit

(** {1 Writes on codes}

    Each write has one implementation, on arena codes: the compiled
    appliers call these directly, with no [Value.t] on the hot path.
    Insert, merge, delete and cost recording happen here and nowhere
    else. *)

(** Canonicalize an arena code under the current union-find. *)
val canon_code : t -> int -> int

(** Does the value behind a code inhabit the sort? *)
val code_matches_sort : t -> sort_kind -> int -> bool

(** Table application: the key codes are canonicalized {e in place}; a
    miss allocates a fresh class for a constructor and asserts the fact
    for a relation.  Returns the output code, or [-1] when the function
    has no defined output. *)
val apply_codes : t -> func -> int array -> int

(** [(set (f key) out)]: insert, or merge with the row's output; the key
    is canonicalized in place.  Under the immediate-rebuild ablation
    flag, congruence is restored before it returns. *)
val set_codes : t -> func -> int array -> int -> unit

(** Union two codes: classes merge (deferred congruence, unless the
    immediate-rebuild ablation flag is on); distinct primitives are an
    error. *)
val union_codes : t -> int -> int -> unit

(** Remove the row with this key, if present; the key is canonicalized
    in place. *)
val delete_codes : t -> func -> int array -> unit

(** [set_cost_codes t f key cost] overrides the extraction cost of an
    e-node (the paper's [unstable-cost], §6.2).  [key] must be the
    canonical codes of a row in [f]'s table (as {!apply_codes} leaves
    them).  Overrides live in one table per function, keyed by canonical
    codes; a cost no lower than one already recorded changes nothing, and
    the key is copied only when a cost is recorded.
    @raise Error if the cost is negative or at least {!cost_cap}. *)
val set_cost_codes : t -> func -> int array -> int -> unit

(** The override of the e-node with these canonical key codes, if any. *)
val cost_override_codes : t -> func -> int array -> int option

(** {1 Value-level wrappers}

    Checked entry points for top-level commands, late-bound calls and
    tests: each checks what it is given (arity and sorts for {!apply} and
    {!set}; the cost and the node's existence for {!set_cost}),
    canonicalizes and encodes its arguments, calls the write on codes,
    and decodes the result. *)

(** Output for the given key, if the row exists. *)
val lookup : t -> func -> Value.t array -> Value.t option

(** Constructor/table application: look up; on a miss, constructors
    allocate a fresh class, relations assert the fact, other functions
    return [None]. *)
val apply : t -> func -> Value.t array -> Value.t option

(** [(set (f args) out)]: insert or merge a row. *)
val set : t -> func -> Value.t array -> Value.t -> unit

(** Remove a row if present. *)
val delete : t -> func -> Value.t array -> unit

(** Assert two e-classes equal (deferred congruence). *)
val union : t -> int -> int -> unit

(** Union two values: e-class refs are merged; distinct primitives error. *)
val union_values : t -> Value.t -> Value.t -> unit

(** Override the extraction cost of the e-node [(f args)]; the node must
    exist.
    @raise Error if the cost is negative or at least {!cost_cap}. *)
val set_cost : t -> func -> Value.t array -> int -> unit

val cost_override : t -> func -> Value.t array -> int option

(** {1 Statistics and iteration} *)

(** Number of rows (e-nodes) across all tables.  O(1): maintained
    incrementally, since the limits gauge polls it every iteration. *)
val n_nodes : t -> int

(** Recount rows by walking the tables (test-only consistency check
    against {!n_nodes}). *)
val recount_nodes : t -> int

val n_classes : t -> int

(** Approximate footprint in words (tables + cost overrides +
    union-find + value pool) — the gauge for {!Limits} memory budgets.
    An estimate, not an accounting: proportional to e-graph size, cheap to
    compute. *)
val approx_memory_words : t -> int

(** Iterate rows as (canonical args, canonical output).  When the graph is
    clean (no pending unions) rows are served as stored, with no per-row
    canonicalization. *)
val iter_rows : t -> func -> (Value.t array -> Value.t -> unit) -> unit

(** Deep copy of the whole e-graph (for push/pop and {!Interp.fork}):
    tables, union-find, value pool and cost overrides.  The copy has the
    original's codes, and nothing either side changes or interns later
    reaches the other.  Function and cost tables keep the original's
    iteration order, which {!rebuild} follows; [funcs_rev] stays
    physically the original's until the copy declares a function. *)
val copy : t -> t

val pp_stats : Format.formatter -> t -> unit
