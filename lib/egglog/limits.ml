(** Resource budgets for saturation; see the interface for the model. *)

type t = {
  max_iters : int option;
  max_nodes : int option;
  max_time_ms : float option;
  max_memory_words : int option;
}

let none =
  { max_iters = None; max_nodes = None; max_time_ms = None; max_memory_words = None }

let make ?max_iters ?max_nodes ?max_time_ms ?max_memory_mb () =
  {
    max_iters;
    max_nodes;
    max_time_ms;
    max_memory_words =
      Option.map (fun mb -> int_of_float (mb *. 1024. *. 1024. /. 8.)) max_memory_mb;
  }

(* Per-attempt budget derivation for supervised retries: a job that blew
   its budget once is unlikely to fit a *larger* one, so each retry halves
   every finite budget — the retry either succeeds quickly on a transient
   failure or fails fast into the caller's fallback.  Floors keep the
   derived budgets meaningful (one iteration, a handful of nodes, enough
   wall clock to start up at all). *)
let for_attempt t ~attempt =
  if attempt <= 0 then t
  else begin
    let shift = min attempt 16 in
    let div_int floor_ v = max floor_ (v asr shift) in
    let div_float floor_ v = Float.max floor_ (v /. float_of_int (1 lsl shift)) in
    {
      max_iters = Option.map (div_int 1) t.max_iters;
      max_nodes = Option.map (div_int 64) t.max_nodes;
      max_time_ms = Option.map (div_float 50.) t.max_time_ms;
      max_memory_words = Option.map (div_int (1024 * 1024 / 8)) t.max_memory_words;
    }
  end

type hit = L_iterations | L_nodes | L_time | L_memory

type gauge = {
  g_iters : int;
  g_nodes : int;
  g_memory_words : int;
  g_elapsed_ms : float;
}

let check t g =
  let over lim v = match lim with Some l -> v >= l | None -> false in
  if over t.max_iters g.g_iters then Some L_iterations
  else if over t.max_nodes g.g_nodes then Some L_nodes
  else if (match t.max_time_ms with Some l -> g.g_elapsed_ms >= l | None -> false)
  then Some L_time
  else if over t.max_memory_words g.g_memory_words then Some L_memory
  else None

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

(* [Unix.gettimeofday] can step backwards (NTP adjustments, manual clock
   changes); clamping every reading to the running maximum makes the
   sequence monotone, which is all a deadline check needs. *)
let last_reading = ref 0.

let now_ms () =
  let raw = Unix.gettimeofday () *. 1000. in
  if raw > !last_reading then last_reading := raw;
  !last_reading

type stopwatch = float  (* the start reading *)

let start () : stopwatch = now_ms ()
let elapsed_ms (s : stopwatch) = now_ms () -. s
