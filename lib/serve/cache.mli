(** The daemon's content-addressed result cache.

    [dialegg-serve] memoizes per-function saturation results.  The key
    is a digest over everything that can influence the output bytes: a
    cache-format version string, the full pipeline configuration
    (ruleset text, schedule, budgets, cost-model-bearing rules, engine,
    degradation policy — everything except fault injection and the
    cache directory itself, which cannot change the result), and the
    printed single-function module.  Two requests share an entry iff a
    cold run would produce byte-identical output for them, so a hit is
    indistinguishable from a recompute.

    Storage is two-level:

    - an in-process LRU (bounded entry count) for the hot set;
    - {!Store}: [KEY.result] entries beside the [KEY.verdict] entries, in
      {!Dialegg.Disk_cache}'s one entry store (durable commits,
      size-capped pruning, and reads that delete a torn, garbage,
      stale-format or cross-linked entry and miss — the daemon
      recomputes, it never serves bad bytes). *)

(** A cached result: the printed optimized function module and how many
    functions inside it degraded (0 or 1). *)
type entry = { ce_output : string; ce_degraded : int }

(** The disk tier. *)
module Store : Dialegg.Disk_cache.STORE with type t = entry

type t

(** [create ~dir ()] makes a cache backed by the on-disk store [dir]
    ([None] = memory-only).  [capacity] bounds the in-process LRU
    (default 512 entries; [0] disables the memory tier). *)
val create : ?capacity:int -> dir:string option -> unit -> t

(** The content address of one function job: digest of the format
    version, the normalized config, and the function module text. *)
val key : config:Dialegg.Pipeline.config -> src:string -> string


(** Look a key up, promoting disk hits into the memory tier.  Tells the
    caller which tier answered (for stats and [--stats] marks). *)
val find : t -> string -> (entry * Protocol.cache_mark) option

(** Insert a computed result into both tiers.  Disk commit is durable
    and best-effort (a read-only store degrades to memory-only). *)
val add : t -> string -> entry -> unit

(** (memory entries, disk entries, disk bytes) — the disk numbers scan
    the store directory. *)
val stats : t -> int * int * int

(** Corrupt one on-disk entry in place (truncate it mid-payload) — the
    [cache-corrupt] fault injection hook.  Returns how many entries were
    damaged. *)
val corrupt_disk_entries : t -> int
