(** Resource budgets for saturation (egg's [Runner] limits, §6.4 of the
    paper's NMM scalability study).

    A {!t} bundles the four budgets a production engine must honour —
    iterations, e-node (table-row) count, wall-clock time and an
    approximate memory estimate — so they can be threaded through
    {!Interp}'s saturation loop as one value and checked in one place.
    Every budget is optional; [none] never stops anything.

    Wall-clock budgets are measured against {!now_ms}, a monotonic clock:
    readings never decrease even if the system clock is stepped
    backwards, so a deadline can never un-expire mid-run. *)

type t = {
  max_iters : int option;  (** saturation iterations per [(run)] *)
  max_nodes : int option;  (** e-graph size (total table rows) *)
  max_time_ms : float option;  (** wall-clock budget, milliseconds *)
  max_memory_words : int option;
      (** approximate e-graph footprint ({!Egraph.approx_memory_words}) *)
}

(** No budgets: nothing ever stops. *)
val none : t

(** [make ()] with any subset of budgets; [max_memory_mb] is converted to
    words assuming 8-byte words. *)
val make :
  ?max_iters:int ->
  ?max_nodes:int ->
  ?max_time_ms:float ->
  ?max_memory_mb:float ->
  unit ->
  t

(** [for_attempt t ~attempt] derives the budget for retry number
    [attempt] (0 = the first try, returned unchanged): every finite
    budget is halved per retry, with floors (1 iteration, 64 nodes,
    50 ms, 1 MB) so a derived budget can still make progress.  A job
    that exhausted its budget once is retried under a tighter one, so a
    deterministic blowup fails fast into the caller's fallback instead
    of burning the full budget on every attempt. *)
val for_attempt : t -> attempt:int -> t

(** Which budget was exhausted. *)
type hit = L_iterations | L_nodes | L_time | L_memory

(** A point-in-time reading of the quantities the budgets bound. *)
type gauge = {
  g_iters : int;
  g_nodes : int;
  g_memory_words : int;
  g_elapsed_ms : float;
}

(** First exhausted budget, if any (checked in the order iterations,
    nodes, time, memory). *)
val check : t -> gauge -> hit option

(** {1 Monotonic clock} *)

(** Milliseconds since an arbitrary epoch; never decreases within the
    process, even if the system clock is stepped backwards. *)
val now_ms : unit -> float

(** A stopwatch started at {!start}. *)
type stopwatch

val start : unit -> stopwatch
val elapsed_ms : stopwatch -> float
