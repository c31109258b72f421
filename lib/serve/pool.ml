(** The parent side of the worker processes; see the interface for the
    model. *)

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Failure classification                                              *)
(* ------------------------------------------------------------------ *)

type fail_class =
  | C_job_error of string
  | C_nonzero of int
  | C_signal of int
  | C_hang
  | C_garbage of string

let fail_class_name = function
  | C_job_error _ -> "error"
  | C_nonzero _ -> "nonzero-exit"
  | C_signal _ -> "signal"
  | C_hang -> "hang"
  | C_garbage _ -> "garbage"

(* OCaml's [Sys.sig*] numbers are internal (negative); render the ones a
   worker can plausibly die from. *)
let signal_name s =
  if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigfpe then "SIGFPE"
  else string_of_int s

let pp_fail_class ppf = function
  | C_job_error m -> Fmt.pf ppf "job error: %s" m
  | C_nonzero n -> Fmt.pf ppf "worker exited with status %d" n
  | C_signal s -> Fmt.pf ppf "worker killed by %s" (signal_name s)
  | C_hang -> Fmt.string ppf "watchdog timeout"
  | C_garbage m -> Fmt.pf ppf "protocol garbage: %s" m

(* Per-attempt budget tightening, derived through {!Egglog.Limits}. *)
let config_for_attempt (p : Dialegg.Pipeline.config) ~attempt =
  if attempt <= 0 then p
  else begin
    let l =
      Egglog.Limits.make ~max_iters:p.max_iterations ~max_nodes:p.max_nodes
        ?max_time_ms:(Option.map (fun s -> s *. 1000.) p.timeout)
        ?max_memory_mb:p.max_memory_mb ()
    in
    let l = Egglog.Limits.for_attempt l ~attempt in
    {
      p with
      max_iterations =
        Option.value ~default:p.max_iterations l.Egglog.Limits.max_iters;
      max_nodes = Option.value ~default:p.max_nodes l.Egglog.Limits.max_nodes;
      timeout =
        (match l.Egglog.Limits.max_time_ms with
        | Some ms -> Some (ms /. 1000.)
        | None -> p.timeout);
      max_memory_mb =
        (match l.Egglog.Limits.max_memory_words with
        | Some w -> Some (float_of_int w *. 8. /. (1024. *. 1024.))
        | None -> p.max_memory_mb);
    }
  end

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type config = {
  size : int;
  job_timeout : float;
  grace : float;
  heartbeat : float;
  recycle_jobs : int;
  recycle_rss_mb : float;
}

let default_config =
  {
    size = 2;
    job_timeout = 60.;
    grace = 1.;
    heartbeat = 5.;
    recycle_jobs = 256;
    recycle_rss_mb = 2048.;
  }

exception Crash_loop

type 'j worker = {
  w_pid : int;
  w_to : Unix.file_descr;
  w_from : Unix.file_descr;
  w_reader : Protocol.reader;
  mutable w_job : ('j * string) option;  (** in-flight attempt and its id *)
  mutable w_deadline : float;  (** 0. = no deadline armed *)
  mutable w_killing : bool;  (** SIGTERM sent; next expiry escalates *)
  mutable w_jobs : int;
  mutable w_ping : bool;  (** a ping awaits its pong *)
  mutable w_beat : float;  (** last sign of life *)
  mutable w_fresh : bool;  (** no message read from it yet *)
}

type 'j t = {
  cfg : config;
  entry : in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit;
  close : unit -> Unix.file_descr list;
  log : string -> unit;
  mutable workers : 'j worker list;
  mutable strikes : int;  (** deaths no attempt paid for, since a first message *)
  mutable deaths : int;
  mutable recycled : int;
}

type 'j event = Done of 'j * string * int | Failed of 'j * fail_class

let create ?(close = fun () -> []) ?(log = ignore) ~entry cfg =
  {
    cfg = { cfg with size = max 1 cfg.size };
    entry;
    close;
    log;
    workers = [];
    strikes = 0;
    deaths = 0;
    recycled = 0;
  }

let log t fmt = Fmt.kstr t.log fmt
let is_idle w = w.w_job = None
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let kill_quietly pid s = try Unix.kill pid s with Unix.Unix_error _ -> ()
let remove t w = t.workers <- List.filter (fun x -> x != w) t.workers
let in_flight t = List.filter_map (fun w -> Option.map fst w.w_job) t.workers
let workers t = List.length t.workers
let deaths t = t.deaths
let recycled t = t.recycled

(* ------------------------------------------------------------------ *)
(* Spawning                                                            *)
(* ------------------------------------------------------------------ *)

let spawn t =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  (* anything buffered would be flushed twice, once per process *)
  flush stdout;
  flush stderr;
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  match Unix.fork () with
  | 0 ->
    (* child: keep only this worker's two pipe ends — sibling fds
       inherited across fork would hold their pipes open forever and mask
       every EOF the parent relies on *)
    close_quietly req_w;
    close_quietly resp_r;
    List.iter
      (fun w ->
        close_quietly w.w_to;
        close_quietly w.w_from)
      t.workers;
    List.iter close_quietly (t.close ());
    (* the child never returns into the parent's code *)
    (match t.entry ~in_fd:req_r ~out_fd:resp_w with
    | () -> Unix._exit 0
    | exception _ -> Unix._exit 2)
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    Unix.set_nonblock resp_r;
    let w =
      {
        w_pid = pid;
        w_to = req_w;
        w_from = resp_r;
        w_reader = Protocol.reader resp_r;
        w_job = None;
        w_deadline = 0.;
        w_killing = false;
        w_jobs = 0;
        w_ping = false;
        w_beat = now ();
        w_fresh = true;
      }
    in
    t.workers <- t.workers @ [ w ];
    log t "worker pid %d spawned" pid

let idle t =
  while List.length t.workers < t.cfg.size do
    if t.strikes + List.length t.workers >= (2 * t.cfg.size) + 8 then raise Crash_loop;
    spawn t
  done;
  List.exists is_idle t.workers

(* ------------------------------------------------------------------ *)
(* Ends of a worker                                                    *)
(* ------------------------------------------------------------------ *)

(* A worker whose request pipe is closed exits 0 on EOF: give it until
   [deadline], SIGKILL it past that, reap it, and close its other pipe. *)
let retire_by deadline w =
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
    | 0, _ ->
      if now () > deadline then begin
        kill_quietly w.w_pid Sys.sigkill;
        try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()
      end
      else begin
        ignore (Unix.select [] [] [] 0.02);
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  close_quietly w.w_from

let recycle t w =
  log t "recycling worker pid %d after %d job(s)" w.w_pid w.w_jobs;
  close_quietly w.w_to;
  retire_by (now () +. Float.max 1.0 t.cfg.grace) w;
  remove t w;
  t.recycled <- t.recycled + 1

(* A worker is gone: make sure it is dead (a desynced stream can come
   from a live, misbehaving process), reap it, and charge its in-flight
   attempt, if any, with the cause; a death with no attempt to pay for it
   is a strike against the pool. *)
let died t w why =
  (match why with `Garbage _ -> kill_quietly w.w_pid Sys.sigkill | `Eof -> ());
  let status =
    match Unix.waitpid [] w.w_pid with
    | _, status -> status
    | exception Unix.Unix_error _ -> Unix.WEXITED 127
  in
  close_quietly w.w_to;
  close_quietly w.w_from;
  remove t w;
  t.deaths <- t.deaths + 1;
  let cls =
    match why with
    | `Garbage m -> C_garbage m
    | `Eof when w.w_killing -> C_hang
    | `Eof -> (
      match status with
      | Unix.WEXITED 0 -> C_garbage "worker exited cleanly without a response"
      | Unix.WEXITED n -> C_nonzero n
      | Unix.WSIGNALED s | Unix.WSTOPPED s -> C_signal s)
  in
  log t "worker pid %d died (%a)" w.w_pid pp_fail_class cls;
  match w.w_job with
  | Some (job, _) -> Some (Failed (job, cls))
  | None ->
    t.strikes <- t.strikes + 1;
    None

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let dispatch t job (rq : Protocol.request) =
  let w = List.find is_idle t.workers in
  let rq =
    { rq with rq_config = config_for_attempt rq.rq_config ~attempt:rq.rq_attempt }
  in
  match Protocol.write_message w.w_to (Protocol.M_request rq) with
  | () ->
    log t "%s: attempt %d sent to pid %d%s" rq.rq_id (rq.rq_attempt + 1) w.w_pid
      (match rq.rq_fault with
      | Some k -> " [inject " ^ Dialegg.Faults.proc_kind_name k ^ "]"
      | None -> "");
    w.w_job <- Some (job, rq.rq_id);
    w.w_deadline <- now () +. t.cfg.job_timeout;
    w.w_killing <- false;
    true
  | exception (Unix.Unix_error _ | Sys_error _) ->
    (* the worker died before it could read: not the attempt's fault *)
    ignore (died t w `Eof);
    false

(* ------------------------------------------------------------------ *)
(* Waiting                                                             *)
(* ------------------------------------------------------------------ *)

(* Resident set size from /proc (Linux); 0. where unreadable. *)
let rss_mb pid =
  match open_in (Printf.sprintf "/proc/%d/statm" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ -> (
          match int_of_string_opt resident with
          | Some pages -> float_of_int pages *. 4096. /. (1024. *. 1024.)
          | None -> 0.)
        | _ -> 0.
        | exception End_of_file -> 0.)

let recycle_due t w =
  (t.cfg.recycle_jobs > 0 && w.w_jobs >= t.cfg.recycle_jobs)
  || (t.cfg.recycle_rss_mb > 0. && rss_mb w.w_pid >= t.cfg.recycle_rss_mb)

(* Read every message [w] has sent; push the attempts that ended. *)
let read t w push =
  let alive () =
    if w.w_fresh then begin
      w.w_fresh <- false;
      t.strikes <- 0
    end;
    w.w_beat <- now ()
  in
  let die why = Option.iter push (died t w why) in
  let rec go () =
    match Protocol.poll w.w_reader with
    | Protocol.Incomplete -> ()
    | Protocol.Msg Protocol.M_pong ->
      alive ();
      w.w_ping <- false;
      if is_idle w then w.w_deadline <- 0.;
      go ()
    | Protocol.Msg (Protocol.M_response rs) -> (
      match w.w_job with
      | Some (job, id) when rs.Protocol.rs_id = id ->
        alive ();
        w.w_job <- None;
        w.w_deadline <- 0.;
        w.w_killing <- false;
        w.w_jobs <- w.w_jobs + 1;
        push
          (match rs.Protocol.rs_result with
          | Ok output -> Done (job, output, rs.Protocol.rs_degraded)
          | Error msg -> Failed (job, C_job_error msg));
        if recycle_due t w then recycle t w else go ()
      | _ -> die (`Garbage "response for the wrong job"))
    | Protocol.Msg _ -> die (`Garbage "worker sent a non-response message")
    | Protocol.Eof -> die `Eof
    | Protocol.Garbage m -> die (`Garbage m)
  in
  go ()

let watchdog t =
  let t0 = now () in
  List.iter
    (fun w ->
      if w.w_deadline > 0. && t0 >= w.w_deadline then begin
        let s = if w.w_killing then Sys.sigkill else Sys.sigterm in
        log t "pid %d unresponsive: %s" w.w_pid (signal_name s);
        kill_quietly w.w_pid s;
        w.w_killing <- true;
        w.w_deadline <- t0 +. t.cfg.grace
      end)
    t.workers

let heartbeat t =
  let t0 = now () in
  List.iter
    (fun w ->
      if is_idle w && (not w.w_ping) && t0 -. w.w_beat >= t.cfg.heartbeat then
        match Protocol.write_message w.w_to Protocol.M_ping with
        | () ->
          w.w_ping <- true;
          w.w_deadline <- t0 +. Float.max t.cfg.grace 2.
        | exception (Unix.Unix_error _ | Sys_error _) -> ignore (died t w `Eof))
    (if t.cfg.heartbeat > 0. then t.workers else [])

let select_timeout t until =
  let t0 = now () in
  let wakes =
    List.filter_map
      (fun w ->
        if w.w_deadline > 0. then Some w.w_deadline
        else if t.cfg.heartbeat > 0. && is_idle w && not w.w_ping then
          Some (w.w_beat +. t.cfg.heartbeat)
        else None)
      t.workers
  in
  let wake = List.fold_left Float.min (t0 +. 1.0) (Option.to_list until @ wakes) in
  Float.max 0. (wake -. t0)

let wait t ?(fds = []) ?until () =
  let readable =
    match
      Unix.select (fds @ List.map (fun w -> w.w_from) t.workers) [] [] (select_timeout t until)
    with
    | r, _, _ -> r
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> []
  in
  let events = ref [] in
  (* a snapshot: reading a worker may remove it *)
  List.iter
    (fun w -> if List.mem w.w_from readable then read t w (fun e -> events := e :: !events))
    t.workers;
  watchdog t;
  heartbeat t;
  (List.filter (fun fd -> List.mem fd readable) fds, List.rev !events)

let shutdown t =
  List.iter (fun w -> close_quietly w.w_to) t.workers;
  let deadline = now () +. Float.max 1.0 t.cfg.grace in
  List.iter (retire_by deadline) t.workers;
  t.workers <- []
