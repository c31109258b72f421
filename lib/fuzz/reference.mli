(** A reference e-matcher: what a premise list means, computed by brute
    force, with no indexes, stamps or plans.  Every table application, at
    any depth, is an atom enumerated by a nested loop over all rows of its
    table ([Egraph.iter_rows]); everything else is a constraint run once
    the atoms have bound what they can.  The tests and the fuzzer compare
    the generic join ({!Egglog.Matcher}) against it. *)

(** Every binding of the premises' own variables (globals resolved in the
    given table) in an e-graph that has been rebuilt, as a sorted,
    duplicate-free list of binding lists sorted by variable name. *)
val matches :
  Egglog.Egraph.t ->
  (string, Egglog.Value.t) Hashtbl.t ->
  Egglog.Ast.fact list ->
  (string * Egglog.Value.t) list list

(** The generic join's answer ({!Egglog.Interp.query}) in the shape of
    {!matches}. *)
val of_envs :
  Egglog.Egraph.t -> Egglog.Matcher.env list -> (string * Egglog.Value.t) list list

(** Every rule of the engine whose full match set through the generic join
    differs from the reference's, as (rule name, join matches, reference
    matches). *)
val disagreements : Egglog.Interp.t -> (string * int * int) list
