(** Extraction: finding the lowest-cost term of an e-class.

    The cost of an e-node is its base cost (its [unstable-cost] override if
    set, else the constructor's [:cost], else 1) plus the costs of every
    referenced e-class — including classes nested inside vector values.
    Sums saturate at an internal infinity.  Shared sub-DAGs are counted
    once per reference (tree cost), the standard equality-saturation
    approximation; {!dag_cost} reports the SSA-form cost with sharing.

    {!make} decodes each live row of each extractable table once into a
    per-class e-node index, then computes per-class costs by fixpoint from
    ⊤ over an array indexed by class id.  The fixpoint terminates because
    base costs are never negative (negative [:cost] and [unstable-cost]
    values are rejected where they are declared or set, and so are values
    at or above {!Egraph.cost_cap}).  Classes with no finite derivation
    keep infinite cost and extracting them errors, as does extracting a
    class whose every term sums to the cap ([cost-overflow]);
    extracting a class reads only that class's own e-nodes.  Extracted
    constructor terms record their e-class ([t_class]) and are memoized
    per class, so shared sub-terms are physically shared — DialEgg's
    de-eggifier relies on both properties. *)

exception Error of string

type term = { t_kind : kind; t_class : int option }

and kind =
  | Node of Symbol.t * term list  (** constructor application *)
  | Prim of Value.t  (** primitive leaf (never contains an e-class) *)
  | T_vec of term list  (** extracted vector value *)

val node : ?cls:int -> Symbol.t -> term list -> term
val prim : Value.t -> term
val t_vec : term list -> term

val pp_term : Format.formatter -> term -> unit
val term_to_string : term -> string
val term_equal : term -> term -> bool

(** Total order on terms by structure only (symbol names and primitive
    payloads, never e-class ids) — the order the tie-break between
    equal-cost e-nodes compares extracted argument lists in. *)
val term_compare : term -> term -> int

(** Head symbol name of a constructor term. *)
val head : term -> string option

(** Child terms (arguments of a node, elements of a vector). *)
val children : term -> term list

(** An extractor: per-class best costs plus the extraction memo table. *)
type t

(** Build an extractor for a rebuilt e-graph: index every e-node under its
    class and run the cost fixpoint. *)
val make : Egraph.t -> t

(** Lowest-cost term of the e-class (memoized; shared sub-terms are
    physically shared). *)
val extract_class : t -> int -> term

(** Extract any value: e-class refs extract, vectors extract elementwise,
    primitives become leaves. *)
val extract_value : t -> Value.t -> term

(** One-shot: build an extractor and extract [v]; returns the term and its
    tree cost. *)
val extract : Egraph.t -> Value.t -> term * int

(** Best known cost of a class under this extractor. *)
val cost_of_class : t -> int -> int

(** Up to [n] distinct terms of the class, cheapest first (one per e-node;
    children always extract optimally). *)
val variants : t -> int -> int -> (term * int) list

(** DAG cost of a term this extractor produced: every distinct e-class
    counted once. *)
val dag_cost : t -> term -> int
