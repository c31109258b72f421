(** One static verdict per ruleset: what the three fail-fast tiers say
    about it — {!Lint}'s diagnostics, {!Vet}'s report and {!Audit}'s
    report — computed together over one {!Lint.checked} value and kept
    apart inside.

    A verdict is memoized under one key, in an in-process table and then
    in one {!Disk_cache.Store} entry ([KEY.verdict]).  A miss computes
    all three parts, whichever tiers the caller reports, so one entry
    serves every caller: the pipeline under any [--no-vet]/[--no-audit]
    choice, [dialegg-check] under any [--only].

    {!read} is the one way in, and it walks the parts in the fail-fast
    order lint → vet → audit. *)

type tier = Lint | Vet | Audit

type t = {
  lint : Egglog.Diag.t list;  (** {!Lint.lint_checked} *)
  vet : Vet.report;
  audit : Audit.report;
}

(** A tier's diagnostics. *)
val diags : t -> tier -> Egglog.Diag.t list

(** The memoization key of a ruleset source under a prelude digest and a
    registry fingerprint: hex MD5 of the format version, [registry],
    [prelude] and the source.  Every tier checks against the prelude and
    the audit reads the registry, so editing either invalidates the
    verdict. *)
val key : prelude:string -> registry:string -> string -> string

(** {!key} under {!Prelude.digest} and the current
    {!Mlir.Dialect.fingerprint}. *)
val hash_source : string -> string

(** The disk tier: [KEY.verdict] entries, keyed by {!hash_source}. *)
module Store : Disk_cache.STORE with type t = t

(** [read ?cache_dir ?file ?checked ~tiers src]: the verdict on [src],
    its diagnostics pointing at [file], and the parts [tiers] selects,
    in the order lint → vet → audit, up to and including the first
    whose diagnostics have an error.

    The verdict comes from the process's table, else from {!Store} under
    [cache_dir] (default {!Disk_cache.default_dir}; none when that is
    disabled), else it is computed from [checked] — which must be
    [Lint.check ?file src], and is forced only then — and committed.
    Each part comes with the status of this read: the first read of a
    tier in the process gets the status the verdict arrived with
    ([Computed] or [Hit_disk]), a later one [Hit_memory]. *)
val read :
  ?cache_dir:string ->
  ?file:string ->
  ?checked:Lint.checked Lazy.t ->
  tiers:tier list ->
  string ->
  t * (tier * Disk_cache.status) list
