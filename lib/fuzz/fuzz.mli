(** The differential fuzzing oracle battery and its crash-triage corpus.

    Each generated {!Gen.case} runs the whole battery inside a forked,
    timeout-guarded subprocess, so a crash, hang, or runaway allocation
    in any pipeline layer is a classified finding rather than a dead
    fuzzing campaign.  Oracles, in severity order (DESIGN.md §"Oracle
    hierarchy"):

    - {e crash}: the subprocess died (nonzero exit, fatal signal,
      unmarshalable reply), or the pipeline raised a non-validation
      error — the loudest and least informative failure;
    - {e hang}: the subprocess outlived the wall-clock budget and was
      SIGKILLed;
    - {e nondeterminism}: two runs under one config produced different
      bytes — invalidates every cache key and batch-equivalence claim;
    - {e differential mismatch}: two configurations that promise
      byte-identical output disagreed (seminaive ≡ naive matching,
      batch ≡ sequential, warm cache ≡ cold run); after
      saturating the case's function, some rule's full match set through
      the join differs from the brute-force {!Reference} matcher's
      ([match-diff]), or some class extracts differently through
      {!Egglog.Extract} than through the reference extractor
      ([extract-diff]); or the optimized program computes different results
      than the input on concrete data (the interpreter-differential, which
      is what catches silent miscompilations like the destination-aliasing
      bug [--inject-fault deeggify:alias] re-arms);
    - {e validator rejection}: the translation validator refused the
      extraction — the most informative failure, it names the broken
      refinement.

    Every failure is hashed into a stable {e triage signature}: a digest
    of the oracle name, the severity, and the failure detail normalized
    by lowercasing, collapsing digit runs and whitespace, and
    truncating — so two repros of one bug bucket together even when SSA
    names, sizes, or addresses differ, and a reduced repro keeps its
    original bucket.  [extract-diff] hashes what differs (cost, term, DAG
    cost or error) in place of its detail, whose extracted terms vary with
    every case. *)

type severity = Crash | Hang | Nondet | Differential | Validator

val severity_name : severity -> string

(** Position in the hierarchy: higher ranks are more informative. *)
val severity_rank : severity -> int

type failure = {
  f_oracle : string;  (** which oracle fired *)
  f_severity : severity;
  f_detail : string;  (** human-readable; may contain volatile text *)
  f_signature : string;  (** stable 12-hex-char triage signature *)
}

type verdict = V_pass | V_fail of failure list

(** The stable triage signature for a finding. *)
val signature : oracle:string -> severity -> detail:string -> string

(** Build a failure with its signature. *)
val failure : oracle:string -> severity -> string -> failure

type config = {
  fz_timeout_ms : int;  (** per-case subprocess wall-clock budget *)
  fz_inject : Dialegg.Faults.t option;  (** armed in every pipeline run *)
  fz_sem_checks : int;  (** concrete arg sets per semantics check *)
}

val default_config : config

(** The deterministic pipeline configuration the battery runs a case
    under: iteration/node budgets only (no wall-clock budget, which
    would make outputs timing-dependent), validator on. *)
val pipeline_config : config -> Gen.case -> Dialegg.Pipeline.config

(** Run the battery on one case in a forked subprocess.  Never raises
    on case misbehavior — everything becomes a classified failure. *)
val run_case : ?config:config -> Gen.case -> verdict

(** Run the battery in the current process (no subprocess guard): the
    reducer's predicate path, where the caller already knows the case
    terminates.  [mlir]/[egg] override the case's sources. *)
val run_battery :
  ?mlir:string -> ?egg:string -> config -> Gen.case -> failure list

(** {1 Corpus persistence} *)

(** [persist_failure ~corpus ~max_per_bucket case f] files the repro
    under [corpus/buckets/<signature>/] (module, ruleset, JSON report),
    unless the bucket already holds [max_per_bucket] repros.  Returns
    the repro path prefix if written. *)
val persist_failure :
  corpus:string -> max_per_bucket:int -> Gen.case -> failure -> string option

(** Append one journal line for a finished case. *)
val append_journal : corpus:string -> Gen.case -> failure list -> unit

(** Replay the journal: [(next_index, bucket counts)].  [(0, [])] when
    there is no journal. *)
val load_journal : corpus:string -> int * (string * int) list
