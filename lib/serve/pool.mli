(** The parent side of the worker processes, shared by the batch driver
    ({!Supervisor}) and the daemon ({!Daemon}).

    {2 Model}

    A pool keeps up to [size] forked workers (plain [Unix.fork], no exec:
    each child runs the entry function given to {!create}, in practice
    {!Worker.main}), each connected through a request/response pipe pair
    speaking {!Protocol}.  The caller owns its queue of jobs: it asks
    {!idle} whether a worker is free, hands one attempt at a time to
    {!dispatch}, and collects what became of its attempts from {!wait}.

    What the pool does for every caller:
    - {b spawning}: a pipe pair, a flush of the standard channels, a
      fork, and in the child the closing of every inherited descriptor
      the pool knows of (sibling pipes, plus the caller's own [close]
      list).  {!idle} replaces dead and retired workers up to [size];
    - {b the watchdog}: past [job_timeout] a busy worker gets SIGTERM,
      then SIGKILL every [grace] seconds until it dies;
    - {b heartbeats}: an idle worker is pinged every [heartbeat] seconds
      and must answer within [max grace 2] seconds, or the watchdog
      kills it;
    - {b recycling}: a worker is retired once it has answered
      [recycle_jobs] jobs or its resident set crosses [recycle_rss_mb]
      (read from [/proc/PID/statm]);
    - {b death classification}: a job error leaves its worker alive;
      any other end of an attempt (nonzero exit, a signal, a watchdog
      kill, protocol garbage) costs the worker its life and is reported
      as a {!fail_class};
    - {b the crash-loop limit}: the pool counts the worker deaths no job
      attempt pays for (a worker that dies idle, or whose request cannot
      be written); a newly spawned worker's first message resets the
      count.  Once that count plus the live workers reaches
      [2 × size + 8], {!idle} spawns no more and raises {!Crash_loop}, so
      a pool whose every worker dies at start-up forks at most
      [2 × size + 8] times.  A job that kills its worker on every
      attempt pays for each death and never trips the limit. *)

(** Why a job attempt was charged a failure. *)
type fail_class =
  | C_job_error of string  (** worker alive; pipeline raised *)
  | C_nonzero of int  (** worker exited with a nonzero status *)
  | C_signal of int  (** worker died of an un-sent signal *)
  | C_hang  (** the watchdog had to kill it *)
  | C_garbage of string  (** protocol stream corrupt *)

val fail_class_name : fail_class -> string
val pp_fail_class : Format.formatter -> fail_class -> unit

(** Tighten a pipeline config for retry [attempt] (0 = first attempt,
    unchanged) by routing its budgets through
    {!Egglog.Limits.for_attempt}. *)
val config_for_attempt : Dialegg.Pipeline.config -> attempt:int -> Dialegg.Pipeline.config

type config = {
  size : int;  (** workers kept alive (at least one) *)
  job_timeout : float;  (** per-attempt wall-clock budget, seconds *)
  grace : float;  (** SIGTERM → SIGKILL escalation delay *)
  heartbeat : float;  (** idle-worker ping period, [0.] = off *)
  recycle_jobs : int;  (** retire a worker after N jobs, [0] = never *)
  recycle_rss_mb : float;  (** retire a worker above this RSS, [0.] = never *)
}

(** size 2, 60 s timeout, 1 s grace, 5 s heartbeat, recycling after 256
    jobs or 2,048 MB. *)
val default_config : config

(** The workers keep dying with no job to blame; see the model above. *)
exception Crash_loop

(** A pool whose in-flight attempts carry the caller's ['j]. *)
type 'j t

(** A pool with no worker yet; the first {!idle} spawns them.  In each
    child, [close ()] names the caller's descriptors to close besides the
    pool's own, and [entry] then runs with the child's ends of its pipe
    pair; the child exits when it returns.  [log] narrates spawns,
    dispatches, kills, deaths and retirements. *)
val create :
  ?close:(unit -> Unix.file_descr list) ->
  ?log:(string -> unit) ->
  entry:(in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit) ->
  config ->
  'j t

(** Replace dead and retired workers, up to [size], then say whether one
    of them is idle.
    @raise Crash_loop instead of spawning past the crash-loop limit. *)
val idle : 'j t -> bool

(** Send [rq] to an idle worker (call it only after {!idle} said so),
    with its config tightened for [rq.rq_attempt] by
    {!config_for_attempt}; [job] is that worker's in-flight attempt until
    {!wait} reports its end.  [false] when the write failed (any
    [Unix_error] or [Sys_error]): the worker is dropped, and the attempt
    is the caller's again. *)
val dispatch : 'j t -> 'j -> Protocol.request -> bool

(** How an in-flight attempt ended: [Done (job, output, degraded)] or
    [Failed (job, why)]. *)
type 'j event = Done of 'j * string * int | Failed of 'j * fail_class

(** Block until a worker or one of [fds] is readable, a watchdog
    deadline or heartbeat falls due, [until] (an absolute time) passes,
    or a second goes by.  Then read every readable worker, run the
    watchdog and the heartbeat, and retire the workers due for
    recycling.  Returns the readable members of [fds] and the attempts
    that ended, in the order seen.  Dead workers are replaced by the
    next {!idle}. *)
val wait : 'j t -> ?fds:Unix.file_descr list -> ?until:float -> unit -> Unix.file_descr list * 'j event list

(** The attempts in flight, one per busy worker. *)
val in_flight : 'j t -> 'j list

(** Live workers. *)
val workers : 'j t -> int

(** Workers that died (retirements and {!shutdown} excluded). *)
val deaths : 'j t -> int

(** Workers retired by recycling. *)
val recycled : 'j t -> int

(** Close every request pipe (a worker exits 0 on EOF), wait up to
    [max 1 grace] seconds, SIGKILL the stragglers, and reap them all.
    In-flight attempts are dropped without an event. *)
val shutdown : 'j t -> unit
