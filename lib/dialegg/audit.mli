(** Cross-layer encoding-contract auditor ([dialegg-check --only audit]).

    Statically cross-checks the egg side of the encoding (op
    constructors and costs in the {!Prelude} plus a user ruleset)
    against the MLIR side ({!Mlir.Dialect} registry) and the extraction
    cost model, once per (ruleset, registry) pair — the third fail-fast
    tier after the sort checker and {!Vet}.  Four analyses:

    - {b Coverage/arity}: [egg-op-unknown] (warning),
      [egg-arity-mismatch], [egg-results-mismatch],
      [mlir-op-unencoded] (warning);
    - {b Sort soundness}: [egg-sort-mismatch] — a rule pins an op
      constructor's result sort to a type class the registered op
      cannot produce;
    - {b Extraction totality}: [cost-unreachable] — a reachability
      fixpoint over the rule dependency graph finds an [Op]
      constructor some fireable rule can introduce that has no cost
      model;
    - {b Effect/purity}: [rule-impure-op] — a rule mentions an op
      without the [Pure] trait (ops whose only effect is [Call] are
      exempt). *)

(** Where an op constructor's extraction cost comes from. *)
type cost_model =
  | Cost_static of int  (** a [:cost] annotation *)
  | Cost_rule  (** an [unstable-cost] rule targets it *)
  | Cost_default  (** nothing: extraction prices it at 1 *)

(** Per-constructor verdict of the coverage analysis. *)
type op_check = {
  a_egg : string;  (** egg constructor name *)
  a_mlir : string;  (** MLIR op it encodes *)
  a_registered : bool;
  a_cost : cost_model;
  a_reachable : bool;
      (** some fireable rule or global action introduces it *)
}

type report = {
  a_file : string option;
  a_ops : op_check list;  (** every op constructor in scope, sorted *)
  a_rules : int;  (** directed rules audited *)
  a_diags : Egglog.Diag.t list;
}

(** Run all four analyses on a ruleset source (the prelude is always in
    scope): [audit_checked (Lint.check ?file src)].  Never raises: a
    program the sort-checker rejects yields the check errors as the
    report's diagnostics with no per-op results. *)
val audit : ?file:string -> string -> report

(** Run all four analyses on an already checked ruleset.  The prelude's
    share of the work (its constructors' registry checks, its cost
    targets, its rules' reachability and the reverse-coverage
    candidates) is computed once per registry fingerprint and reused. *)
val audit_checked : Lint.checked -> report

(** How many times the prelude's share has been computed in this
    process: once, plus once after each registry change an audit saw. *)
val prelude_model_builds : unit -> int

(** Where the audit part of a {!Verdict} came from. *)
type cache_status = Disk_cache.status = Hit_memory | Hit_disk | Computed

val cost_model_name : cost_model -> string

(** One line per op constructor: egg name, MLIR op, registry and cost
    status, reachability ([dialegg-check -v]). *)
val pp_coverage : Format.formatter -> report -> unit

(** One-line totals: constructor counts, rules, errors, warnings. *)
val pp_summary : Format.formatter -> report -> unit
