(** A reference e-matcher and a reference extractor, computed by brute
    force.

    The matcher says what a premise list means, with no indexes, stamps or
    plans.  Every table application, at any depth, is an atom enumerated
    by a nested loop over all rows of its table ([Egraph.iter_rows]);
    everything else is a constraint run once the atoms have bound what
    they can.  The tests and the fuzzer compare the join
    ({!Egglog.Matcher}) against it.

    The extractor is the naive algorithm {!Egglog.Extract} replaced: class
    costs by whole passes over every row until none gets cheaper, and each
    class's e-nodes found by scanning every table, with no per-class
    index.  The tests and the fuzzer compare {!Egglog.Extract} against
    it. *)

(** Every binding of the premises' own variables in an e-graph that has
    been rebuilt, as a sorted, duplicate-free list of binding lists sorted
    by variable name.  The names in [globals] denote the given values;
    every other name is a pattern variable. *)
val matches :
  Egglog.Egraph.t ->
  globals:(string * Egglog.Value.t) list ->
  Egglog.Ast.fact list ->
  (string * Egglog.Value.t) list list

(** Every rule of the engine whose full match set through the join
    ({!Egglog.Interp.query}, under the globals the rule pinned) differs
    from the reference's, as (rule name, join matches, reference
    matches). *)
val disagreements : Egglog.Interp.t -> (string * int * int) list

(** Every canonical class of the e-graph (rebuilt first) whose extraction
    through {!Egglog.Extract} differs from the reference extractor's, as
    (class, what differs first — ["cost"], ["term"], ["dag-cost"] or
    ["error"] — and both sides' term, DAG cost and cost, or error).
    Classes are extracted newest first through one extractor of each
    kind; agreement means the same cost, the same term with the same
    [t_class] at every node, the same DAG cost, or the same error. *)
val extract_disagreements : Egglog.Egraph.t -> (int * string * string) list
