(** Flat-arena storage for e-graph function tables: values encoded as int
    codes (e-class [n] ↦ even [2n], pooled primitive [p] ↦ odd [2p+1]),
    rows as [arity+1] consecutive ints in one flat array, stamped
    monotonically so seminaive deltas are suffix scans, with congruence
    lookups through one open-addressing int-keyed hash. *)

(** {1 Value pool} *)

(** Hash tables keyed by code arrays, by content. *)
module Codes_tbl : Hashtbl.S with type key = int array

type pool

val create_pool : unit -> pool

(** Code of a value (the caller canonicalizes first). *)
val encode : pool -> Value.t -> int

(** Value of a code. *)
val decode : pool -> int -> Value.t

(** Code of the vector whose elements have these codes: the code
    {!encode} gives that vector, found by the element codes alone once the
    pool has met it.  The array is not kept. *)
val encode_vec : pool -> int array -> int

val is_class_code : int -> bool
val code_of_class : int -> int

(** Class id of an even code (undefined on odd codes). *)
val class_of_code : int -> int

(** Is the code canonical under the union-find? *)
val code_canonical : Union_find.t -> pool -> int -> bool

(** Canonicalize a code (e-class codes via the union-find; pooled vectors
    embedding e-classes are re-interned). *)
val canon_code : Union_find.t -> pool -> int -> int

val pool_memory_words : pool -> int

(** Deep copy: values the copy interns later do not reach the original,
    and the other way round. *)
val copy_pool : pool -> pool

(** {1 Tables} *)

type table

(** An empty table.  Until its first {!append} it shares its (empty)
    arrays with every other such table and allocates nothing but its
    record. *)
val create : arity:int -> table

(** Rows appended so far, including dead ones. *)
val n_rows : table -> int

(** Live rows. *)
val n_live : table -> int

(** Dead rows not yet dropped by {!compact}. *)
val n_dead : table -> int

(** Bumped whenever row numbers change ({!compact}); invalidates any
    external index built over row indices. *)
val version : table -> int

(** The last compaction's old-row -> new-row map (dead rows map to -1),
    when it translates exactly from [from_version] to the current
    numbering; [None] when the index is too stale.  Compaction preserves
    order, so remapped ascending row vectors stay ascending. *)
val remap_from : table -> from_version:int -> int array option

val is_dead : table -> int -> bool
val stamp : table -> int -> int
val out_code : table -> int -> int
val arg_code : table -> int -> int -> int

(** Code in column [c] of row [r]; column [arity] is the output. *)
val col_code : table -> int -> int -> int

(** Live row index for the key, or -1. *)
val find : table -> int array -> int

(** Append a live row ([key] is copied).  The key must not be live in the
    table and [stamp] must exceed every stamp present. *)
val append : table -> int array -> int -> int -> int

(** Kill row [r] and append a fresh copy with the given output code and
    stamp; returns the new row index. *)
val rewrite : table -> int -> int -> int -> int

(** Remove the live row with this key; returns whether one was removed. *)
val remove : table -> int array -> bool

(** Mark row [r] dead (its hash slot is tombstoned). *)
val kill : table -> int -> unit

(** First row index with stamp strictly greater than [since] (binary
    search; dead rows included — skip them while scanning). *)
val delta_start : table -> since:int -> int

(** Iterate live row indices in append (= stamp) order. *)
val iter_live : table -> (int -> unit) -> unit

(** Drop dead rows in place preserving order, rebuild the hash, bump
    {!version}.  No-op when nothing is dead. *)
val compact : table -> unit

(** Deep copy; a table nobody wrote to copies only its record. *)
val copy : table -> table
val memory_words : table -> int
