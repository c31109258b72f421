(** Static ruleset verifier ([dialegg-check --only vet]).

    Analyzes a ruleset once, before any saturation runs, and reports
    {!Egglog.Diag} diagnostics from three passes:

    - {b Soundness}: each directed rule's two sides are evaluated
      symbolically under the {!Mlir.Dataflow} interval, shape and
      constant domains, with pattern variables at the weakest fact and
      shared between the sides.  If the right-hand side's fact does not
      refine the left-hand side's, the rule can change observable
      behaviour: errors [rule-range-widened], [rule-shape-changed],
      [rule-type-changed].
    - {b Termination/expansion}: rules are classified by term size and a
      rule-dependency graph (RHS-constructed terms unified against LHS
      patterns) is searched for cycles through non-contracting rules:
      warning [expansive-cycle].
    - {b Overlap/shadowing}: pairwise LHS comparison of unconditional
      rewrites: warnings [rule-shadowed] (duplicate or subsumed rule)
      and [rule-overlap] (same LHS, different RHS).

    Guards are ignored by the soundness pass (they only narrow the LHS),
    so a rule that is sound only because of its guard may be flagged;
    see DESIGN.md.  The report is one part of a ruleset's {!Verdict},
    memoized in-process and on disk. *)

(** How a directed rule changes term size. *)
type classification = Contracting | Size_preserving | Expanding

val classification_name : classification -> string

(** Per-rule verdict, as printed by [--stats] and [dialegg-check -v]. *)
type rule_info = {
  vr_name : string;  (** the rule's [:name], or a synthesized [lhs=>rhs@line] label *)
  vr_line : int;
  vr_class : classification;
  vr_interval : (Mlir.Dataflow.Interval.t * Mlir.Dataflow.Interval.t) option;
      (** symbolic (lhs, rhs) facts; [None] when the rule was not analyzable *)
  vr_shape : (Mlir.Dataflow.Shape.t * Mlir.Dataflow.Shape.t) option;
  vr_const : (Mlir.Dataflow.Constness.t * Mlir.Dataflow.Constness.t) option;
  vr_sound : bool;
}

type report = {
  v_file : string option;
  v_rules : rule_info list;
  v_diags : Egglog.Diag.t list;
}

(** Run all three passes on a ruleset source: [vet_checked (Lint.check
    ?file src)].  Never raises: a program the sort-checker rejects yields
    its check errors as the report's diagnostics with no per-rule
    results. *)
val vet : ?file:string -> string -> report

(** Run all three passes on an already checked ruleset. *)
val vet_checked : Lint.checked -> report

(** Where the vet part of a {!Verdict} came from. *)
type cache_status = Disk_cache.status = Hit_memory | Hit_disk | Computed

(** One line per rule: name, classification, soundness verdict, and the
    symbolic interval pair when it changed. *)
val pp_classification : Format.formatter -> report -> unit

(** One-line totals: rule counts per class, errors, warnings. *)
val pp_summary : Format.formatter -> report -> unit

(** {2 Rule-model internals}

    Shared with the cross-layer encoding auditor ({!Audit}), which
    analyzes the same directed-rule decomposition against the MLIR
    dialect registry. *)

(** What one argument sort of an op constructor encodes, per {!Sigs}'s
    convention. *)
type arg_kind = K_operand | K_attr | K_region | K_type | K_other

val kind_of_sort : string -> arg_kind

(** Argument sorts of an MLIR op constructor ([fs_ret = Op], not the
    [Value] leaf and not a primitive), or [None]. *)
val op_constructor : Egglog.Check.env -> string -> string list option
