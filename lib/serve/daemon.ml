(** The persistent optimization daemon; see the interface for the model. *)

exception Error of string

let now () = Unix.gettimeofday ()

type config = {
  socket_path : string;
  pool : int;
  max_queue : int;
  retries : int;
  job_timeout : float;
  grace : float;
  heartbeat : float;
  recycle_jobs : int;
  recycle_rss_mb : float;
  cache_dir : string option;
  cache_capacity : int;
  pipeline : Dialegg.Pipeline.config;
  rules_path : string option;
  fault : Dialegg.Faults.serve_fault option;
  verbose : bool;
}

let default_config =
  {
    socket_path = "dialegg.sock";
    pool = 2;
    max_queue = 64;
    retries = 2;
    job_timeout = 60.;
    grace = 1.;
    heartbeat = 5.;
    recycle_jobs = 256;
    recycle_rss_mb = 2048.;
    cache_dir = Dialegg.Disk_cache.default_dir ();
    cache_capacity = 512;
    pipeline = Dialegg.Pipeline.default_config;
    rules_path = None;
    fault = None;
    verbose = false;
  }

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type client = {
  cl_fd : Unix.file_descr;
  cl_reader : Protocol.reader;
  mutable cl_alive : bool;
}

(* One client request in flight: its own parsed module (so concurrent
   requests never share mutable ops), with per-function results spliced
   in as they arrive. *)
type req = {
  rq_client : client;
  rq_module : Mlir.Ir.op;
  mutable rq_waiting : int;  (** function jobs still outstanding *)
  mutable rq_marks : (string * Protocol.cache_mark) list;  (** reversed *)
  mutable rq_degraded : int;
  mutable rq_failed : string option;
  rq_started : float;
}

(* One function job.  [jb_key = Some k] means the result is eligible for
   the cache under [k]: first attempt, base (un-tightened) config, no
   injected fault.  Requests needing the same key coalesce as waiters. *)
type job = {
  jb_id : string;
  jb_key : string option;
  jb_name : string;
  jb_src : string;
  jb_config : Dialegg.Pipeline.config;
  mutable jb_attempt : int;
  mutable jb_waiters : (req * Mlir.Ir.op) list;
  mutable jb_fault : Dialegg.Faults.proc_kind option;
}

type worker = {
  dw_pid : int;
  dw_to : Unix.file_descr;
  dw_from : Unix.file_descr;
  dw_reader : Protocol.reader;
  mutable dw_job : job option;
  mutable dw_deadline : float;  (** 0. = no deadline armed *)
  mutable dw_killing : bool;
  mutable dw_jobs : int;
  mutable dw_ping_pending : bool;
  mutable dw_last_beat : float;
}

type state = {
  cfg : config;
  mutable pipeline : Dialegg.Pipeline.config;  (** pre-warmed; swapped on SIGHUP *)
  cache : Cache.t;
  mutable listen_fd : Unix.file_descr option;
  sig_r : Unix.file_descr;
  sig_w : Unix.file_descr;
  mutable workers : worker list;
  mutable clients : client list;
  mutable queue : job list;  (** FIFO, head = next to dispatch *)
  mutable draining : bool;
  mutable open_reqs : int;
  started : float;
  mutable job_seq : int;
  mutable dispatched : int;  (** lifetime dispatches, for fault triggers *)
  (* counters, mirrored into Protocol.daemon_stats *)
  mutable n_requests : int;
  mutable n_funcs : int;
  mutable n_hits_mem : int;
  mutable n_hits_disk : int;
  mutable n_misses : int;
  mutable n_shed : int;
  mutable n_errors : int;
  mutable n_deadline_misses : int;
  mutable n_reloads : int;
  mutable n_reload_failures : int;
  mutable n_respawns : int;
  mutable n_recycled : int;
  mutable latencies : float list;  (** most recent first, ms, bounded *)
}

let verbose st fmt =
  Fmt.kstr (fun s -> if st.cfg.verbose then Fmt.epr "[dialegg-serve] %s@." s) fmt

let is_idle w = w.dw_job = None

(* ------------------------------------------------------------------ *)
(* Socket lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

(* Claim the socket path: refuse to start over a live daemon, silently
   recover a stale socket left by a crash (e.g. a mid-drain SIGKILL). *)
let claim_socket path =
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
      (try Unix.close probe with Unix.Unix_error _ -> ());
      raise (Error (Printf.sprintf "a daemon is already serving on %s" path))
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      (try Unix.close probe with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ()))
  | _ ->
    raise (Error (Printf.sprintf "%s exists and is not a socket" path))
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise
       (Error
          (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e))));
  Unix.listen fd 64;
  fd

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

let spawn st =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  match Unix.fork () with
  | 0 ->
    (* child: drop every fd that is not this worker's own pipe pair —
       an inherited listen socket or sibling pipe would hold resources
       open across the whole daemon lifetime *)
    let close_q fd = try Unix.close fd with Unix.Unix_error _ -> () in
    close_q req_w;
    close_q resp_r;
    (match st.listen_fd with Some fd -> close_q fd | None -> ());
    close_q st.sig_r;
    close_q st.sig_w;
    List.iter (fun c -> close_q c.cl_fd) st.clients;
    List.iter
      (fun w ->
        close_q w.dw_to;
        close_q w.dw_from)
      st.workers;
    Worker.main ~in_fd:req_r ~out_fd:resp_w
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    Unix.set_nonblock resp_r;
    let w =
      {
        dw_pid = pid;
        dw_to = req_w;
        dw_from = resp_r;
        dw_reader = Protocol.reader resp_r;
        dw_job = None;
        dw_deadline = 0.;
        dw_killing = false;
        dw_jobs = 0;
        dw_ping_pending = false;
        dw_last_beat = now ();
      }
    in
    st.workers <- st.workers @ [ w ];
    verbose st "worker pid %d spawned" pid

let reap_worker st w =
  (try Unix.close w.dw_to with Unix.Unix_error _ -> ());
  (try Unix.close w.dw_from with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.dw_pid) with Unix.Unix_error _ -> ());
  st.workers <- List.filter (fun x -> x != w) st.workers

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

(* ------------------------------------------------------------------ *)
(* Client I/O                                                          *)
(* ------------------------------------------------------------------ *)

(* Replies use a blocking write under SO_SNDTIMEO: a client that stops
   reading for longer than the send timeout is dropped, never allowed to
   wedge the daemon. *)
let send_client st cl msg =
  if cl.cl_alive then begin
    try
      Unix.clear_nonblock cl.cl_fd;
      Protocol.write_message cl.cl_fd msg;
      Unix.set_nonblock cl.cl_fd
    with Unix.Unix_error _ | Sys_error _ ->
      verbose st "dropping unresponsive client";
      cl.cl_alive <- false
  end

let drop_client st cl =
  cl.cl_alive <- false;
  (try Unix.close cl.cl_fd with Unix.Unix_error _ -> ());
  st.clients <- List.filter (fun c -> c != cl) st.clients

let accept_client st fd =
  match Unix.accept ~cloexec:true fd with
  | cl_fd, _ ->
    Unix.set_nonblock cl_fd;
    (try Unix.setsockopt_float cl_fd Unix.SO_SNDTIMEO 10.
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    st.clients <-
      { cl_fd; cl_reader = Protocol.reader cl_fd; cl_alive = true }
      :: st.clients
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let record_latency st ms =
  let keep = 1024 in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  st.latencies <- take keep (ms :: st.latencies)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

let stats st : Protocol.daemon_stats =
  let mem_entries, disk_entries, disk_bytes = Cache.stats st.cache in
  let sorted = Array.of_list st.latencies in
  Array.sort compare sorted;
  {
    Protocol.ds_requests = st.n_requests;
    ds_funcs = st.n_funcs;
    ds_hits_mem = st.n_hits_mem;
    ds_hits_disk = st.n_hits_disk;
    ds_misses = st.n_misses;
    ds_shed = st.n_shed;
    ds_errors = st.n_errors;
    ds_deadline_misses = st.n_deadline_misses;
    ds_reloads = st.n_reloads;
    ds_reload_failures = st.n_reload_failures;
    ds_respawns = st.n_respawns;
    ds_recycled = st.n_recycled;
    ds_workers = List.length st.workers;
    ds_queue = List.length st.queue;
    ds_uptime_s = now () -. st.started;
    ds_cache_mem_entries = mem_entries;
    ds_cache_disk_entries = disk_entries;
    ds_cache_disk_bytes = disk_bytes;
    ds_p50_ms = percentile sorted 0.50;
    ds_p99_ms = percentile sorted 0.99;
    ds_draining = st.draining;
  }

(* The persisted "index": a human-readable snapshot of the counters and
   store shape, committed atomically beside the cache entries on drain.
   The entries themselves are self-describing, so recovery never needs
   this file — a mid-drain kill loses nothing but the report. *)
let persist_index st =
  match st.cfg.cache_dir with
  | None -> ()
  | Some dir ->
    let s = stats st in
    let body =
      Fmt.str "dialegg-serve-index 1@\n%a@\n" Protocol.pp_daemon_stats s
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    (try Atomic_io.write_atomic ~path:(Filename.concat dir "serve-index") body
     with Sys_error _ | Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Request completion                                                  *)
(* ------------------------------------------------------------------ *)

let trip_cache_corrupt st =
  match st.cfg.fault with
  | Some { Dialegg.Faults.sf_kind = Dialegg.Faults.S_cache_corrupt; sf_at }
    when st.n_requests = sf_at ->
    let n = Cache.corrupt_disk_entries st.cache in
    verbose st "fault: truncated %d cache entr(ies)" n
  | _ -> ()

let finish_req st (r : req) =
  st.n_requests <- st.n_requests + 1;
  st.open_reqs <- st.open_reqs - 1;
  (match r.rq_failed with
  | Some msg ->
    st.n_errors <- st.n_errors + 1;
    send_client st r.rq_client (Protocol.C_error msg)
  | None ->
    let out = Mlir.Printer.module_to_string r.rq_module in
    let latency = now () -. r.rq_started in
    record_latency st (latency *. 1000.);
    send_client st r.rq_client
      (Protocol.C_reply
         {
           Protocol.sv_output = out;
           sv_degraded = r.rq_degraded;
           sv_marks = List.rev r.rq_marks;
           sv_latency_s = latency;
         }));
  trip_cache_corrupt st

let req_job_done st (r : req) =
  r.rq_waiting <- r.rq_waiting - 1;
  if r.rq_waiting = 0 then finish_req st r

(* ------------------------------------------------------------------ *)
(* Job completion / failure                                            *)
(* ------------------------------------------------------------------ *)

let deliver_ok st (j : job) ~output ~degraded =
  (match j.jb_key with
  | Some k when j.jb_attempt = 0 && j.jb_fault = None ->
    Cache.add st.cache k { Cache.ce_output = output; ce_degraded = degraded }
  | _ -> ());
  List.iter
    (fun (r, op) ->
      (match Supervisor.splice_function op output with
      | () -> r.rq_degraded <- r.rq_degraded + degraded
      | exception _ ->
        r.rq_failed <-
          Some (Printf.sprintf "@%s: worker returned an unspliceable result"
                  j.jb_name));
      req_job_done st r)
    j.jb_waiters

(* Retries exhausted.  A pipeline error under the [Fail] policy fails
   the request (exactly what a cold run would do); a worker crash —
   which a cold run cannot express — degrades to the identity body, the
   batch driver's contract. *)
let deliver_failed st (j : job) ~(crash : bool) msg =
  List.iter
    (fun (r, _op) ->
      if crash || j.jb_config.Dialegg.Pipeline.on_limit <> Dialegg.Pipeline.Fail
      then r.rq_degraded <- r.rq_degraded + 1
      else r.rq_failed <- Some (Printf.sprintf "@%s: %s" j.jb_name msg);
      req_job_done st r)
    j.jb_waiters

let job_failed st (j : job) ~crash msg =
  if j.jb_attempt < st.cfg.retries then begin
    j.jb_attempt <- j.jb_attempt + 1;
    (* a fault injected on attempt 0 is spent; the retry runs clean *)
    j.jb_fault <- None;
    verbose st "%s: attempt %d failed (%s); retrying" j.jb_id j.jb_attempt msg;
    st.queue <- st.queue @ [ j ]
  end
  else begin
    verbose st "%s: retries exhausted (%s)" j.jb_id msg;
    deliver_failed st j ~crash msg
  end

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let find_coalesce st key =
  let in_queue =
    List.find_opt (fun j -> j.jb_key = Some key && j.jb_attempt = 0) st.queue
  in
  match in_queue with
  | Some _ as r -> r
  | None ->
    List.find_map
      (fun w ->
        match w.dw_job with
        | Some j when j.jb_key = Some key && j.jb_attempt = 0 -> Some j
        | _ -> None)
      st.workers

let retry_after st =
  let backlog = List.length st.queue + 1 in
  let pool = Stdlib.max 1 st.cfg.pool in
  Stdlib.min 30. (0.05 *. float_of_int (backlog / pool + 1) *. 10.)

let admit st cl (srq : Protocol.serve_request) =
  if st.draining then
    send_client st cl (Protocol.C_error "daemon is draining; not accepting work")
  else begin
    let t0 = now () in
    let deadline =
      Option.map (fun ms -> t0 +. (ms /. 1000.)) srq.Protocol.sv_deadline_ms
    in
    match
      let m = Mlir.Parser.parse_module srq.Protocol.sv_source in
      (match Dialegg.Validate.verify_diags ~code:"invalid-input" m with
      | [] -> ()
      | diags ->
        raise
          (Dialegg.Pipeline.Error
             (Fmt.str "input module fails verification:@\n%a"
                Egglog.Diag.pp_list diags)));
      m
    with
    | exception Mlir.Parser.Syntax_error { line; col; msg } ->
      st.n_errors <- st.n_errors + 1;
      send_client st cl
        (Protocol.C_error (Printf.sprintf "mlir parse: %d:%d: %s" line col msg))
    | exception Dialegg.Pipeline.Error msg ->
      st.n_errors <- st.n_errors + 1;
      send_client st cl (Protocol.C_error msg)
    | exception e ->
      st.n_errors <- st.n_errors + 1;
      send_client st cl (Protocol.C_error (Printexc.to_string e))
    | m ->
      let funcs =
        List.filter
          (fun op -> op.Mlir.Ir.op_name = "func.func")
          (Mlir.Ir.module_ops m)
      in
      let r =
        {
          rq_client = cl;
          rq_module = m;
          rq_waiting = 0;
          rq_marks = [];
          rq_degraded = 0;
          rq_failed = None;
          rq_started = t0;
        }
      in
      st.n_funcs <- st.n_funcs + List.length funcs;
      (* cache pass first: a fully-warm request costs no queue slots and
         is served even under full load or a zero-length queue *)
      let misses = ref [] in
      List.iter
        (fun op ->
          let name = Mlir.Ir.func_name op in
          let src = Mlir.Printer.op_to_string op in
          let key = Cache.key ~config:st.pipeline ~src in
          match Cache.find st.cache key with
          | Some (entry, mark) -> (
            match Supervisor.splice_function op entry.Cache.ce_output with
            | () ->
              (match mark with
              | Protocol.Sv_hit_mem -> st.n_hits_mem <- st.n_hits_mem + 1
              | Protocol.Sv_hit_disk -> st.n_hits_disk <- st.n_hits_disk + 1
              | Protocol.Sv_miss -> ());
              r.rq_degraded <- r.rq_degraded + entry.Cache.ce_degraded;
              r.rq_marks <- (name, mark) :: r.rq_marks
            | exception _ ->
              (* an entry that no longer splices is as good as corrupt *)
              misses := (op, name, src, key) :: !misses)
          | None -> misses := (op, name, src, key) :: !misses)
        funcs;
      let misses = List.rev !misses in
      let deadline_left =
        match deadline with None -> infinity | Some d -> d -. now ()
      in
      if misses <> [] && deadline_left <= 0. then begin
        st.n_deadline_misses <- st.n_deadline_misses + 1;
        st.n_errors <- st.n_errors + 1;
        send_client st cl (Protocol.C_error "deadline exceeded before dispatch")
      end
      else begin
        (* deadline propagation: tighten the per-function budget when the
           client allows less than the configured one.  A tightened run
           is not what a cold run would produce, so it is never cached. *)
        let job_config, cacheable =
          match st.pipeline.Dialegg.Pipeline.timeout with
          | Some t when t <= deadline_left -> (st.pipeline, true)
          | None when deadline_left = infinity -> (st.pipeline, true)
          | _ ->
            ( { st.pipeline with Dialegg.Pipeline.timeout = Some deadline_left },
              false )
        in
        let fresh =
          List.filter
            (fun (_, _, _, key) ->
              not (cacheable && find_coalesce st key <> None))
            misses
        in
        if
          List.length st.queue + List.length fresh > st.cfg.max_queue
          && fresh <> []
        then begin
          st.n_shed <- st.n_shed + 1;
          send_client st cl
            (Protocol.C_overloaded { retry_after_s = retry_after st })
        end
        else begin
          st.open_reqs <- st.open_reqs + 1;
          List.iter
            (fun (op, name, src, key) ->
              st.n_misses <- st.n_misses + 1;
              r.rq_marks <- (name, Protocol.Sv_miss) :: r.rq_marks;
              r.rq_waiting <- r.rq_waiting + 1;
              match if cacheable then find_coalesce st key else None with
              | Some j -> j.jb_waiters <- (r, op) :: j.jb_waiters
              | None ->
                st.job_seq <- st.job_seq + 1;
                let j =
                  {
                    jb_id = Printf.sprintf "%s#%d" name st.job_seq;
                    jb_key = (if cacheable then Some key else None);
                    jb_name = name;
                    jb_src = src;
                    jb_config = job_config;
                    jb_attempt = 0;
                    jb_waiters = [ (r, op) ];
                    jb_fault = None;
                  }
                in
                st.queue <- st.queue @ [ j ])
            misses;
          if r.rq_waiting = 0 then finish_req st r
        end
      end
  end

(* ------------------------------------------------------------------ *)
(* Dispatch / watchdog / heartbeat                                     *)
(* ------------------------------------------------------------------ *)

let worker_died st w ~respawn why =
  (match why with
  | `Garbage _ ->
    (try Unix.kill w.dw_pid Sys.sigkill with Unix.Unix_error _ -> ())
  | `Eof -> ());
  reap_worker st w;
  (match w.dw_job with
  | Some j ->
    w.dw_job <- None;
    let msg =
      match why with
      | `Garbage m -> "protocol garbage: " ^ m
      | `Eof -> if w.dw_killing then "watchdog timeout" else "worker died"
    in
    job_failed st j ~crash:true msg
  | None -> ());
  if respawn then begin
    st.n_respawns <- st.n_respawns + 1;
    spawn st
  end

let dispatch st =
  let rec go () =
    match (List.find_opt is_idle st.workers, st.queue) with
    | Some w, j :: rest ->
      st.queue <- rest;
      st.dispatched <- st.dispatched + 1;
      (match st.cfg.fault with
      | Some
          { Dialegg.Faults.sf_kind = Dialegg.Faults.S_hang_under_load; sf_at }
        when st.dispatched = sf_at ->
        j.jb_fault <- Some Dialegg.Faults.W_hang;
        verbose st "fault: arming worker-hang on dispatch %d" sf_at
      | _ -> ());
      let rq =
        {
          Protocol.rq_id = j.jb_id;
          rq_attempt = j.jb_attempt;
          rq_input = Protocol.J_text { name = j.jb_name; src = j.jb_src };
          rq_config =
            Supervisor.config_for_attempt j.jb_config ~attempt:j.jb_attempt;
          rq_fault = j.jb_fault;
        }
      in
      (match Protocol.write_message w.dw_to (Protocol.M_request rq) with
      | () ->
        w.dw_job <- Some j;
        w.dw_deadline <- now () +. st.cfg.job_timeout;
        w.dw_killing <- false;
        verbose st "%s: dispatched to pid %d (attempt %d)" j.jb_id w.dw_pid
          (j.jb_attempt + 1)
      | exception (Unix.Unix_error _ | Sys_error _) ->
        (* the worker died before reading: requeue the same attempt *)
        st.queue <- j :: st.queue;
        worker_died st w ~respawn:true `Eof);
      go ()
    | _ -> ()
  in
  go ()

let recycle_due st w =
  (st.cfg.recycle_jobs > 0 && w.dw_jobs >= st.cfg.recycle_jobs)
  || st.cfg.recycle_rss_mb > 0.
     && rss_mb w.dw_pid >= st.cfg.recycle_rss_mb

let maybe_recycle st w =
  if is_idle w && recycle_due st w then begin
    verbose st "recycling worker pid %d after %d job(s)" w.dw_pid w.dw_jobs;
    (* closing the request pipe is the graceful retire signal: the idle
       worker sees EOF and exits 0 *)
    reap_worker st w;
    st.n_recycled <- st.n_recycled + 1;
    if not st.draining then spawn st
  end

let watchdog st =
  let t = now () in
  List.iter
    (fun w ->
      let expired = w.dw_deadline > 0. && t >= w.dw_deadline in
      if expired then
        if not w.dw_killing then begin
          verbose st "pid %d unresponsive: SIGTERM" w.dw_pid;
          (try Unix.kill w.dw_pid Sys.sigterm with Unix.Unix_error _ -> ());
          w.dw_killing <- true;
          w.dw_deadline <- t +. st.cfg.grace
        end
        else begin
          verbose st "pid %d still unresponsive: SIGKILL" w.dw_pid;
          (try Unix.kill w.dw_pid Sys.sigkill with Unix.Unix_error _ -> ());
          w.dw_deadline <- t +. st.cfg.grace
        end)
    st.workers

let heartbeat st =
  if st.cfg.heartbeat > 0. then begin
    let t = now () in
    List.iter
      (fun w ->
        if
          is_idle w && (not w.dw_ping_pending)
          && t -. w.dw_last_beat >= st.cfg.heartbeat
        then begin
          match Protocol.write_message w.dw_to Protocol.M_ping with
          | () ->
            w.dw_ping_pending <- true;
            w.dw_deadline <- t +. Stdlib.max st.cfg.grace 2.
          | exception (Unix.Unix_error _ | Sys_error _) ->
            worker_died st w ~respawn:(not st.draining) `Eof
        end)
      (List.filter (fun _ -> true) st.workers)
  end

(* ------------------------------------------------------------------ *)
(* Worker events                                                       *)
(* ------------------------------------------------------------------ *)

let worker_readable st w =
  let rec drain_msgs () =
    match Protocol.poll w.dw_reader with
    | Protocol.Incomplete -> ()
    | Protocol.Msg Protocol.M_pong ->
      w.dw_ping_pending <- false;
      w.dw_last_beat <- now ();
      if is_idle w then w.dw_deadline <- 0.;
      drain_msgs ()
    | Protocol.Msg (Protocol.M_response resp) -> (
      match w.dw_job with
      | Some j when resp.Protocol.rs_id = j.jb_id ->
        w.dw_job <- None;
        w.dw_deadline <- 0.;
        w.dw_killing <- false;
        w.dw_jobs <- w.dw_jobs + 1;
        w.dw_last_beat <- now ();
        (match resp.Protocol.rs_result with
        | Ok output ->
          deliver_ok st j ~output ~degraded:resp.Protocol.rs_degraded
        | Error msg -> job_failed st j ~crash:false msg);
        maybe_recycle st w;
        (* recycling reaps the worker and closes its fds: stop here *)
        if List.memq w st.workers then drain_msgs ()
      | _ -> worker_died st w ~respawn:(not st.draining) (`Garbage "response for the wrong job"))
    | Protocol.Msg _ ->
      worker_died st w ~respawn:(not st.draining)
        (`Garbage "worker sent a non-response message")
    | Protocol.Eof -> worker_died st w ~respawn:(not st.draining) `Eof
    | Protocol.Garbage m -> worker_died st w ~respawn:(not st.draining) (`Garbage m)
  in
  drain_msgs ()

(* ------------------------------------------------------------------ *)
(* Client events                                                       *)
(* ------------------------------------------------------------------ *)

let client_readable st cl =
  let rec drain_msgs () =
    if cl.cl_alive then
      match Protocol.poll cl.cl_reader with
      | Protocol.Incomplete -> ()
      | Protocol.Eof | Protocol.Garbage _ -> drop_client st cl
      | Protocol.Msg (Protocol.C_optimize srq) ->
        admit st cl srq;
        drain_msgs ()
      | Protocol.Msg Protocol.C_stats_request ->
        send_client st cl (Protocol.C_stats (stats st));
        drain_msgs ()
      | Protocol.Msg Protocol.M_ping ->
        send_client st cl Protocol.M_pong;
        drain_msgs ()
      | Protocol.Msg _ -> drop_client st cl
  in
  drain_msgs ();
  if not cl.cl_alive then drop_client st cl

(* ------------------------------------------------------------------ *)
(* Signals: drain and reload                                           *)
(* ------------------------------------------------------------------ *)

let begin_drain st =
  if not st.draining then begin
    verbose st "drain requested: finishing %d open request(s)" st.open_reqs;
    st.draining <- true;
    (match st.listen_fd with
    | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      st.listen_fd <- None
    | None -> ())
  end

(* SIGHUP: re-read the rules file, push the candidate through every
   static tier, and only then swap it in.  Any failure — unreadable
   file, lint/vet/audit error — leaves the serving ruleset untouched. *)
let reload st =
  match st.cfg.rules_path with
  | None -> verbose st "reload requested but no --rules file to re-read"
  | Some path -> (
    match
      let ic = open_in_bin path in
      let rules =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Dialegg.Pipeline.prewarmed
        { st.cfg.pipeline with Dialegg.Pipeline.rules }
    with
    | fresh ->
      st.pipeline <- fresh;
      st.n_reloads <- st.n_reloads + 1;
      verbose st "reloaded ruleset from %s" path
    | exception e ->
      st.n_reload_failures <- st.n_reload_failures + 1;
      let msg =
        match e with
        | Dialegg.Pipeline.Error m -> m
        | Sys_error m -> m
        | e -> Printexc.to_string e
      in
      Fmt.epr "[dialegg-serve] reload failed, keeping old ruleset: %s@." msg)

let handle_signals st =
  let buf = Bytes.create 64 in
  match Unix.read st.sig_r buf 0 64 with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | 0 -> ()
  | n ->
    String.iter
      (fun c ->
        match c with
        | 't' -> begin_drain st
        | 'h' -> reload st
        | _ -> ())
      (Bytes.sub_string buf 0 n)

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

let shutdown_workers st =
  List.iter
    (fun w -> try Unix.close w.dw_to with Unix.Unix_error _ -> ())
    st.workers;
  let deadline = now () +. Stdlib.max 1.0 st.cfg.grace in
  List.iter
    (fun w ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] w.dw_pid with
        | 0, _ ->
          if now () > deadline then begin
            (try Unix.kill w.dw_pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (try Unix.waitpid [] w.dw_pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
          end
          else begin
            ignore (Unix.select [] [] [] 0.02);
            wait ()
          end
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      wait ();
      try Unix.close w.dw_from with Unix.Unix_error _ -> ())
    st.workers;
  st.workers <- []

let drained st = st.draining && st.open_reqs = 0 && st.queue = []

let finish_drain st =
  (* the deterministic mid-drain-kill point: everything is answered,
     nothing is persisted yet — a restart must recover from the store
     alone *)
  (match st.cfg.fault with
  | Some { Dialegg.Faults.sf_kind = Dialegg.Faults.S_drain_kill; _ } ->
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ());
  persist_index st;
  shutdown_workers st;
  List.iter (fun cl -> try Unix.close cl.cl_fd with Unix.Unix_error _ -> ())
    st.clients;
  st.clients <- [];
  (try Sys.remove st.cfg.socket_path with Sys_error _ -> ());
  verbose st "drain complete"

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

let select_timeout st =
  let t = now () in
  let deadlines =
    List.filter_map
      (fun w -> if w.dw_deadline > 0. then Some w.dw_deadline else None)
      st.workers
  in
  let beats =
    if st.cfg.heartbeat > 0. then
      List.filter_map
        (fun w ->
          if is_idle w && not w.dw_ping_pending then
            Some (w.dw_last_beat +. st.cfg.heartbeat)
          else None)
        st.workers
    else []
  in
  match deadlines @ beats with
  | [] -> 1.0
  | ds -> Stdlib.min 1.0 (Stdlib.max 0.01 (List.fold_left Stdlib.min infinity ds -. t))

let run (cfg : config) =
  (* pre-warm before the first fork, so every worker inherits the
     memoized lint/vet/audit verdicts and the base engine *)
  let pipeline =
    try Dialegg.Pipeline.prewarmed cfg.pipeline
    with Dialegg.Pipeline.Error m -> raise (Error ("rules rejected: " ^ m))
  in
  let listen_fd = claim_socket cfg.socket_path in
  let sig_r, sig_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock sig_r;
  Unix.set_nonblock sig_w;
  let st =
    {
      cfg;
      pipeline;
      cache = Cache.create ~capacity:cfg.cache_capacity ~dir:cfg.cache_dir ();
      listen_fd = Some listen_fd;
      sig_r;
      sig_w;
      workers = [];
      clients = [];
      queue = [];
      draining = false;
      open_reqs = 0;
      started = now ();
      job_seq = 0;
      dispatched = 0;
      n_requests = 0;
      n_funcs = 0;
      n_hits_mem = 0;
      n_hits_disk = 0;
      n_misses = 0;
      n_shed = 0;
      n_errors = 0;
      n_deadline_misses = 0;
      n_reloads = 0;
      n_reload_failures = 0;
      n_respawns = 0;
      n_recycled = 0;
      latencies = [];
    }
  in
  let notify c _ =
    try ignore (Unix.write_substring st.sig_w c 0 1)
    with Unix.Unix_error _ -> ()
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (notify "t"));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (notify "t"));
  (try Sys.set_signal Sys.sighup (Sys.Signal_handle (notify "h"))
   with Invalid_argument _ | Sys_error _ -> ());
  for _ = 1 to Stdlib.max 1 cfg.pool do
    spawn st
  done;
  verbose st "serving on %s (pool %d, cache %s)" cfg.socket_path cfg.pool
    (match cfg.cache_dir with Some d -> d | None -> "memory-only");
  let rec loop () =
    if drained st then finish_drain st
    else begin
      let fds =
        (match st.listen_fd with Some fd -> [ fd ] | None -> [])
        @ [ st.sig_r ]
        @ List.map (fun c -> c.cl_fd) st.clients
        @ List.map (fun w -> w.dw_from) st.workers
      in
      let readable, _, _ =
        match Unix.select fds [] [] (select_timeout st) with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [], [])
      in
      if List.mem st.sig_r readable then handle_signals st;
      (match st.listen_fd with
      | Some fd when List.mem fd readable -> accept_client st fd
      | _ -> ());
      List.iter
        (fun cl -> if List.mem cl.cl_fd readable then client_readable st cl)
        (List.filter (fun _ -> true) st.clients);
      List.iter
        (fun w -> if List.mem w.dw_from readable then worker_readable st w)
        (List.filter (fun _ -> true) st.workers);
      watchdog st;
      heartbeat st;
      if (not st.draining) || st.queue <> [] then begin
        if st.workers = [] && st.queue <> [] then spawn st;
        dispatch st
      end;
      loop ()
    end
  in
  loop ()
