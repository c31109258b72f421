(** Runtime values of the Egglog engine: primitives, vectors (which may
    contain e-class references), and e-class references.

    E-class references go stale when classes are unified; {!canonicalize}
    rewrites every embedded id to its representative.  Hash tables keyed by
    values must only store canonical values. *)

type t =
  | I64 of int64
  | F64 of float
  | Str of string
  | Bool of bool
  | Unit
  | Vec of t array
  | Eclass of int  (** reference to an e-class, by id *)

(** Structural equality.  [F64] compares bit patterns, so [0.0] and
    [-0.0] are different values (they are different constants: [x + 0.0]
    and [x + -0.0] differ at [x = -0.0]); every NaN equals every NaN. *)
val equal : t -> t -> bool

(** Consistent with {!equal}: equal values hash alike. *)
val hash : t -> int

(** Replace every e-class id inside the value (including inside vectors,
    recursively) with its canonical representative. *)
val canonicalize : Union_find.t -> t -> t

(** Would {!canonicalize} be a no-op? *)
val is_canonical : Union_find.t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Tbl : Hashtbl.S with type key = t
