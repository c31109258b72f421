(** The end-to-end DialEgg pipeline (paper Fig. 2):
    MLIR → eggify → saturate → extract → de-eggify → MLIR, per function,
    with per-phase timings (the paper's Table 2 columns). *)

exception Error of string

(** Degradation policy when a function's optimization hits a hard
    resource limit (node / time / memory) or a fault:

    - [Fail] (default): raise {!Error} — the whole module aborts;
    - [Best_effort]: keep the best result available (truncated-e-graph
      extraction after a limit, the last anytime checkpoint after an
      extraction failure, the untouched original after a stage fault) and
      continue with the remaining functions;
    - [Identity]: any hard limit or fault restores the original function
      body verbatim and continues.

    Running out of [max_iterations] is the scheduling bound, not a hard
    limit: it degrades nothing under any policy. *)
type on_limit = Fail | Best_effort | Identity

(** Each policy with its name on the command line: ["fail"],
    ["best-effort"], ["identity"]. *)
val on_limits : (string * on_limit) list

val on_limit_name : on_limit -> string

type config = {
  rules : string;  (** Egglog source: user declarations, rules, cost models *)
  schedule : (string option * int) list option;
      (** staged saturation: (ruleset, iteration limit) pairs run in order;
          [None] runs the default ruleset for [max_iterations] *)
  max_iterations : int;
  max_nodes : int;  (** e-graph node budget *)
  timeout : float option;  (** per-function saturation wall-clock budget *)
  run_dce : bool;  (** clean dead ops after de-eggification *)
  verify : bool;  (** verify the rewritten module *)
  validate : bool;
      (** translation validation (see {!Validate}, default on): verify the
          input module before eggify, snapshot its abstract facts, and
          after extraction check types / shapes / result intervals still
          refine them; error diagnostics raise {!Error}
          ([dialegg-opt --no-validate] turns this off) *)
  lint : bool;
      (** report the lint part of the rules' {!Verdict} before
          saturation: lint errors raise {!Error}, warnings go to stderr *)
  vet : bool;
      (** report the {!Vet} part (default on): abstract-interpretation
          soundness errors raise {!Error}, expansion/overlap warnings go
          to stderr ([dialegg-opt --no-vet] turns this off) *)
  audit : bool;
      (** report the {!Audit} part (default on): contract errors between
          the ruleset, the MLIR dialect registry and the extraction cost
          model raise {!Error}, coverage warnings go to stderr
          ([dialegg-opt --no-audit] turns this off).  The three flags
          only choose what is reported: the verdict, memoized by
          content hash, always holds all three parts *)
  vet_cache_dir : string option;
      (** on-disk verdict cache override (default [$DIALEGG_VET_CACHE]
          or the system temporary directory; [DIALEGG_VET_CACHE=""]
          disables) *)
  engine : Egglog.Egraph.engine;
      (** e-graph storage engine; [Arena] is the only one (see
          {!Egglog.Egraph.engine}) *)
  jobs : int;
      (** accepted and ignored, like [engine]: saturation runs on one
          domain.  The field stays only so that [perfbench/replica.ml],
          which passes it to {!Egglog.Interp.create}, still builds. *)
  seminaive : bool;
      (** seminaive e-matching: rules scan only rows created since they
          last fired (default); off = every due rule searches the full
          join each iteration — same output, slower
          ([dialegg-opt --naive-matching]) *)
  backoff : bool;
  match_limit : int;
  ban_length : int;
      (** [backoff], [match_limit] and [ban_length] are read by nothing,
          like [engine] and [jobs]: saturation applies every match it
          finds.  They stay only so that [perfbench/replica.ml], which
          reads them, still builds. *)
  max_memory_mb : float option;
      (** approximate e-graph memory budget (see {!Egglog.Limits}) *)
  on_limit : on_limit;  (** degradation policy (default [Fail]) *)
  checkpoint_every : int;
      (** anytime-checkpoint cadence in saturation iterations (0 = off;
          only used under non-[Fail] policies) *)
  inject : Faults.t option;
      (** deterministic fault injection at stage boundaries (tests /
          [dialegg-opt --inject-fault]); the [DIALEGG_INJECT_FAULT] env
          var also arms one *)
}

val default_config : config

(** Read the static tiers [config] turns on from [config.rules]'s
    {!Verdict}, in the order lint → vet → audit: a tier's warnings go to
    stderr the first time the process reads it, and its errors raise.
    On a miss the verdict is computed from the process's one reading of
    the ruleset (see {!load_rules}).  Returns vet's and audit's reports
    with the status of this read; [None] for a tier that is off, and for
    both when there are no rules.
    @raise Error ["rules failed lint"], ["rules failed vet"] or ["rules
    failed encoding audit"] on the first tier with an error. *)
val static_tiers_exn :
  config -> (Vet.report * Vet.cache_status) option * (Audit.report * Audit.cache_status) option

(** {!static_tiers_exn} with only [config.vet]'s tier. *)
val vet_rules_exn : config -> (Vet.report * Vet.cache_status) option

(** {!static_tiers_exn} with only [config.audit]'s tier. *)
val audit_rules_exn : config -> (Audit.report * Audit.cache_status) option

(** Pre-warm [config] for a long-lived serving or batch process: run the
    lint / vet / audit fail-fast tiers once (memoizing the verdict),
    build the base engine {!setup_function} forks (so worker processes
    forked later inherit it), and return the config with those
    per-run tiers disabled — so every later
    {!optimize_func_report} / {!optimize_source} under the returned
    config skips straight to saturation while producing output
    byte-identical to a cold run.
    @raise Error if the rules fail any static tier. *)
val prewarmed : config -> config

(** The engine set-up {!optimize_func_report} runs for each function:
    {!fork_base}, {!load_rules}, {!add_type_of}, then [func] eggified.
    The engine is the one a fresh replay of the prelude and
    [config.rules] would give: the same rules in the same order, the
    same [rule-N] names and table order, and the same codes except that
    the prelude rules' literals come first.  Returns the engine, the
    translation state, the signatures and the name of the global holding
    [func]'s root.
    @raise Error ["rules: …"] when [config.rules] fails to load. *)
val setup_function :
  ?hooks:Translate.hooks ->
  config ->
  Mlir.Ir.op ->
  Egglog.Interp.t * Eggify.t * Sigs.t * string

(** A fork ({!Egglog.Interp.fork}) of the base engine, under [config]'s
    limits (nodes, wall clock, memory) and matching regime
    ([seminaive]).  The base ran
    the prelude and compiled its rules once per process
    ({!Egglog.Interp.compile_rules}), so the fork starts with their
    plans. *)
val fork_base : config -> Egglog.Interp.t

(** Run [config.rules] in the engine.  The ruleset is read once per
    process: the reading the static tiers' {!Lint.check} made, or that
    an earlier function's set-up made, is reused.
    @raise Error ["rules: …"] when the rules fail to read or to load,
    the message the interpreter's error carries. *)
val load_rules : config -> Egglog.Interp.t -> unit

(** Register the generated [type-of] rules in a fork of the base that
    loaded its rules, and return the signatures.  When the rules declared
    no function, the base's signatures serve, and the base's [type-of]
    rules, prepared and compiled once ({!Egglog.Interp.prepare_rules}),
    are spliced in ({!Egglog.Interp.add_prepared}); else the fork's
    functions are scanned and their [type-of] rules run. *)
val add_type_of : Egglog.Interp.t -> Sigs.t

(** How many times this process has read a ruleset source: once per
    ruleset, however many functions and static tiers use it, while no
    other ruleset is read in between. *)
val rules_read : unit -> int

type timings = {
  t_mlir_to_egg : float;  (** engine set-up: fork, rules load, eggify *)
  t_egglog : float;  (** total engine time: saturation + extraction *)
  t_saturate : float;  (** the saturation part of [t_egglog] *)
  t_search : float;  (** e-matching part of [t_saturate] *)
  t_apply : float;  (** action-application part of [t_saturate] *)
  t_rebuild : float;  (** congruence-rebuild part of [t_saturate] *)
  t_egg_to_mlir : float;  (** de-eggification (+DCE) *)
  iterations : int;
  matches : int;
  stop : Egglog.Interp.stop_reason;
  n_nodes : int;  (** e-graph size after saturation *)
  peak_nodes : int;  (** largest e-graph size seen while saturating *)
  n_classes : int;
  extracted_cost : int;  (** tree cost of the extraction *)
  extracted_dag_cost : int;  (** cost with shared sub-terms counted once *)
  rule_stats : Egglog.Interp.rule_stat list;
      (** per-rule search/apply counts and times ([dialegg-opt --stats]);
          merged by rule name when timings are summed *)
}

val zero_timings : timings
val add_timings : timings -> timings -> timings
val pp_timings : Format.formatter -> timings -> unit

(** Per-rule statistics table, one row per rule, most matches first, ties
    by rule name — a total order on the counts, so the rows come out in
    the same order on every run whatever the timings. *)
val pp_rule_stats : Format.formatter -> Egglog.Interp.rule_stat list -> unit

(** {1 Per-function outcomes and fault isolation} *)

(** What happened to one function. *)
type outcome =
  | Optimized  (** extraction replaced the body *)
  | Degraded of Faults.stage * Egglog.Diag.t
      (** a stage failed; the original body was kept (identity fallback) *)

type func_report = {
  fr_name : string;
  fr_outcome : outcome;
  fr_stop : Egglog.Interp.stop_reason;  (** why saturation stopped *)
  fr_timings : timings;
}

type report = {
  r_funcs : func_report list;
  r_timings : timings;
  r_vet : (Vet.report * Vet.cache_status) option;
      (** the ruleset's static verification verdict and whether it was
          recomputed or served from the memo ([None] when vetting is off
          or there are no rules) *)
  r_audit : (Audit.report * Audit.cache_status) option;
      (** the encoding audit's verdict and cache provenance ([None] when
          the audit is off or there are no rules) *)
}

val pp_outcome : Format.formatter -> outcome -> unit

(** One line per function: outcome, stop reason, iterations, peak size. *)
val pp_report : Format.formatter -> report -> unit

(** No degradations and no hard stops (saturated or iteration-bounded
    only). *)
val report_clean : report -> bool

(** Optimize one [func.func] in place and report what happened.  Under
    [on_limit = Fail] failures raise {!Error}; under the other policies
    every stage runs inside a fault handler and failures degrade to the
    original function body. *)
val optimize_func_report :
  ?config:config -> ?hooks:Translate.hooks -> Mlir.Ir.op -> func_report

(** Optimize every function of a module in place (or only those named in
    [only]), with per-function fault isolation under non-[Fail]
    policies. *)
val optimize_module_report :
  ?config:config -> ?hooks:Translate.hooks -> ?only:string list -> Mlir.Ir.op -> report

(** Optimize every function of a module in place (or only those named in
    [only]); summed timings. *)
val optimize_module :
  ?config:config -> ?hooks:Translate.hooks -> ?only:string list -> Mlir.Ir.op -> timings

(** Optimize MLIR source text end to end — parse, verify the input,
    optimize, print — the exact sequence the sequential [dialegg-opt] CLI
    performs, so callers (notably batch-driver workers) produce
    byte-identical output to a sequential run under the same [config].
    @raise Mlir.Parser.Syntax_error on parse failure
    @raise Error when the input fails verification, or per [config]'s
    [on_limit] policy. *)
val optimize_source :
  ?config:config ->
  ?hooks:Translate.hooks ->
  ?only:string list ->
  ?file:string ->
  string ->
  string * report

(** Parse and re-print [src] unchanged: the output a fully-degraded
    [Identity] run would produce.  The batch driver's last-resort
    fallback when a job's retry budget is exhausted. *)
val identity_source : string -> string

(** [splice_function func src] replaces [func]'s attributes and regions
    with those of the single function printed in [src]: how the identity
    fallback restores a snapshot, how the batch driver splices a
    worker's function back into its module, and how the daemon
    reassembles per-function results.
    @raise Error if [src] is not exactly one [func.func], and
    {!Mlir.Parser.Syntax_error} if it does not parse. *)
val splice_function : Mlir.Ir.op -> string -> unit
