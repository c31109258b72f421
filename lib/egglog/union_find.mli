(** Union-find (disjoint sets) over dense integer ids, with path halving
    and union by rank.  E-class ids are allocated with {!fresh} and merged
    with {!union}. *)

type t

(** [create ()] is an empty structure (no ids allocated). *)
val create : ?capacity:int -> unit -> t

(** Number of ids allocated so far. *)
val size : t -> int

(** Allocate a new id that is its own representative. *)
val fresh : t -> int

(** Canonical representative of [x]'s set.
    @raise Invalid_argument if [x] was never allocated. *)
val find : t -> int -> int

(** Merge two sets; returns the representative of the merged set. *)
val union : t -> int -> int -> int

(** Are the two ids in the same set? *)
val same : t -> int -> int -> bool

(** Is [x] the representative of its set? *)
val is_canonical : t -> int -> bool

(** Deep copy (for push/pop snapshots). *)
val copy : t -> t
