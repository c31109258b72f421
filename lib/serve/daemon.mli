(** The persistent optimization daemon behind [dialegg-serve].

    One process listens on a Unix-domain socket, keeps a pool of
    pre-warmed worker subprocesses (rules linted / vetted / audited
    once, the base engine built — see {!Dialegg.Pipeline.prewarmed}), and
    serves whole-module optimization requests.  Each request is split
    per function; every function result is memoized in the
    content-addressed {!Cache}, so a warm request is answered without
    touching a worker — byte-identical to a cold [dialegg-opt] run
    under the same configuration.

    Robustness properties, each exercised by the fault matrix in
    [test/test_serve.ml]:

    - {b bounded admission}: at most [max_queue] function jobs wait;
      a request whose misses do not fit is shed with [C_overloaded]
      and a retry-after hint.  Requests fully served from cache are
      never shed;
    - {b deadline propagation}: a client deadline tightens the
      per-function time budget; deadline-tightened (and retried, and
      identity-fallback) results are never cached, so the cache only
      ever holds what a cold run would produce;
    - {b worker supervision}: the {!Pool}'s watchdog, heartbeats,
      recycling and crash-loop limit.  A job whose worker dies is
      retried with tightened budgets and degrades to identity after
      [retries] attempts; when the pool crash-loops, every open job
      degrades the same way, the daemon drains, and {!run} raises;
    - {b graceful drain}: SIGTERM (or SIGINT) stops accepting work,
      finishes in-flight requests, persists the cache stats index,
      unlinks the socket and exits 0;
    - {b live reload}: SIGHUP re-reads [rules_path], re-runs the
      static tiers on the candidate ruleset, and atomically swaps it
      in — on any failure the old ruleset keeps serving;
    - {b crash-safe cache}: every committed entry survives a kill at
      any instant; torn entries are detected, deleted and recomputed
      (see {!Cache}). *)

type config = {
  socket_path : string;
  pool : int;  (** worker subprocesses *)
  max_queue : int;  (** bounded admission: queued function jobs *)
  retries : int;  (** attempts per function job before identity *)
  job_timeout : float;  (** per-attempt worker watchdog, seconds *)
  grace : float;  (** SIGTERM → SIGKILL escalation delay *)
  heartbeat : float;  (** idle-worker ping period, [0.] = off *)
  recycle_jobs : int;  (** retire a worker after N jobs, [0] = never *)
  recycle_rss_mb : float;  (** retire a worker above this RSS, [0.] = never *)
  cache_dir : string option;  (** result-cache store, [None] = memory-only *)
  cache_capacity : int;  (** in-process LRU entries *)
  pipeline : Dialegg.Pipeline.config;  (** NOT yet pre-warmed *)
  rules_path : string option;  (** re-read on SIGHUP *)
  fault : Dialegg.Faults.serve_fault option;  (** daemon-level injection *)
  verbose : bool;
}

(** pool 2, queue 64, 2 retries, 60 s timeout, 1 s grace, 5 s heartbeat,
    recycle after 256 jobs or 2 GiB RSS, disk cache at the default
    {!Dialegg.Disk_cache} directory, LRU 512. *)
val default_config : config

exception Error of string

(** Run the daemon until a drain completes.  Blocks; never returns under
    normal serving.  Installs SIGTERM / SIGINT / SIGHUP handlers and
    ignores SIGPIPE.
    @raise Error if the socket is in use by a live daemon, the rules
    fail the static tiers at startup, or the worker pool crash-loops. *)
val run : config -> unit
