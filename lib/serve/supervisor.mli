(** The batch driver: a {!Pool} of workers, plus the retry queue, the
    journal, the identity fallback and the module-mode splice-back.

    {2 Model}

    [run] lints, vets and audits the rules once ({!Dialegg.Pipeline.prewarmed}),
    then dispatches jobs to a {!Pool} of {!Worker.main} processes until
    every job has exactly one outcome.  The pool supervises the workers
    (watchdog, heartbeats, recycling, death classification, the
    crash-loop limit); the driver decides what an attempt's end means:
    - job-level errors and worker deaths each cost the job an attempt;
    - retry with exponential backoff ([backoff] · 2ⁿ) and per-attempt
      budget tightening ({!Pool.config_for_attempt}), up to [retries]
      retries;
    - when the budget is exhausted, degradation to the identity output
      (the input parsed and re-printed), never a missing file.

    A full batch is journaled through {!Queue} when [journal_path] is
    set, and [resume] skips journaled-complete jobs whose outputs still
    exist.

    Non-faulted outputs are byte-identical to a sequential
    [dialegg-opt] run of the same inputs: workers run the exact
    {!Dialegg.Pipeline.optimize_source} path and the supervisor writes
    their bytes unmodified (atomically — temp file + rename). *)

exception Error of string

type config = {
  pool : int;  (** max concurrent workers *)
  retries : int;  (** retries after the first attempt *)
  job_timeout : float;  (** per-job wall-clock budget, seconds *)
  grace : float;  (** SIGTERM → SIGKILL escalation delay *)
  backoff : float;  (** base retry delay, seconds (doubles per attempt) *)
  pipeline : Dialegg.Pipeline.config;
  faults : Dialegg.Faults.proc_fault list;  (** injected process faults *)
  journal_path : string option;
  resume : bool;
  verbose : bool;  (** narrate dispatch/kill/retry decisions on stderr *)
}

(** pool 4, 2 retries, 60 s timeout, 1 s grace, 50 ms base backoff, no
    journal, no injection. *)
val default_config : config

type job_outcome =
  | J_optimized of { degraded : int }
      (** optimized output written; [degraded] functions fell back to
          identity {e inside} the worker (stage-level degradation) *)
  | J_identity of Pool.fail_class
      (** retries exhausted; identity output written.  The class is the
          {e last} attempt's failure. *)
  | J_failed of string  (** even the identity fallback was impossible *)
  | J_resumed of Queue.outcome  (** skipped: journaled complete *)

type job_result = {
  jr_job : Queue.job;
  jr_outcome : job_outcome;
  jr_attempts : int;
  jr_output : string option;
      (** module-mode only: the printed function to splice back.
          Directory-mode outputs go straight to disk. *)
}

type batch_report = { br_results : job_result list }

(** No [J_failed] outcome — the batch driver's exit-0 condition. *)
val report_ok : batch_report -> bool

(** (optimized, identity, failed, resumed) *)
val counts : batch_report -> int * int * int * int

val pp_outcome : Format.formatter -> job_outcome -> unit
val pp_report : Format.formatter -> batch_report -> unit

(** Run the batch.  Returns one result per job, in the input order.
    @raise Error on an empty batch, duplicate job ids, or a
    crash-looping pool.
    @raise Dialegg.Pipeline.Error before any worker forks or any output
    is written, if the rules fail a static tier. *)
val run : ?config:config -> Queue.job list -> batch_report

(** Module mode: splice each [J_func] job's output function back into
    the parsed module (identity/failed jobs leave the original body). *)
val splice_results : Mlir.Ir.op -> batch_report -> unit
