(** Built-in primitive operations ([+], [*], [log2], [pow], comparisons,
    vector operations, ...).  Pure functions over {!Value.t}; they never
    touch the e-graph.  Arithmetic and comparisons are polymorphic over
    [i64] and [f64]. *)

exception Error of string

(** Does [name] denote a primitive operation? *)
val is_primitive : string -> bool

(** Evaluate primitive [name] on the arguments.
    @raise Error on sort mismatch or invalid input (division by zero,
    out-of-bounds [vec-get], [log2] of a non-positive number); the rule
    engine treats such errors as a failed premise. *)
val apply : string -> Value.t list -> Value.t

(** An i64 result that does not fit in 64 bits. *)
exception Overflow

(** {!apply}, except that i64 [+], [-] and [*] raise {!Overflow} instead
    of wrapping.  Cost expressions are evaluated this way: a cost that
    wrapped could come back small. *)
val apply_checked : string -> Value.t list -> Value.t
