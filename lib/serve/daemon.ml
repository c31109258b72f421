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
    pool = Pool.default_config.size;
    max_queue = 64;
    retries = 2;
    job_timeout = Pool.default_config.job_timeout;
    grace = Pool.default_config.grace;
    heartbeat = Pool.default_config.heartbeat;
    recycle_jobs = Pool.default_config.recycle_jobs;
    recycle_rss_mb = Pool.default_config.recycle_rss_mb;
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

type state = {
  cfg : config;
  mutable pipeline : Dialegg.Pipeline.config;  (** pre-warmed; swapped on SIGHUP *)
  cache : Cache.t;
  mutable listen_fd : Unix.file_descr option;
  sig_r : Unix.file_descr;
  sig_w : Unix.file_descr;
  pool : job Pool.t;
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
  mutable latencies : float list;  (** most recent first, ms, bounded *)
}

let say (cfg : config) s = if cfg.verbose then Fmt.epr "[dialegg-serve] %s@." s
let verbose st fmt = Fmt.kstr (say st.cfg) fmt

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
    ds_respawns = Pool.deaths st.pool;
    ds_recycled = Pool.recycled st.pool;
    ds_workers = Pool.workers st.pool;
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
      (match Dialegg.Pipeline.splice_function op output with
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
  List.find_opt
    (fun j -> j.jb_key = Some key && j.jb_attempt = 0)
    (st.queue @ Pool.in_flight st.pool)

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
            match Dialegg.Pipeline.splice_function op entry.Cache.ce_output with
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
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let dispatch st =
  let rec go () =
    if Pool.idle st.pool then
      match st.queue with
      | j :: rest ->
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
            rq_config = j.jb_config;
            rq_fault = j.jb_fault;
          }
        in
        (* a failed write requeues the same attempt *)
        if not (Pool.dispatch st.pool j rq) then st.queue <- j :: st.queue;
        go ()
      | [] -> ()
  in
  go ()

let on_event st = function
  | Pool.Done (j, output, degraded) -> deliver_ok st j ~output ~degraded
  | Pool.Failed (j, Pool.C_job_error msg) -> job_failed st j ~crash:false msg
  | Pool.Failed (j, cls) ->
    job_failed st j ~crash:true (Fmt.str "%a" Pool.pp_fail_class cls)

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
  Pool.shutdown st.pool;
  List.iter (fun cl -> try Unix.close cl.cl_fd with Unix.Unix_error _ -> ())
    st.clients;
  st.clients <- [];
  (try Sys.remove st.cfg.socket_path with Sys_error _ -> ());
  verbose st "drain complete"

(* The pool is crash-looping: answer every open job as a worker crash
   (identity bodies, as after exhausted retries), then drain and stop. *)
let crash_loop st =
  let open_jobs = st.queue @ Pool.in_flight st.pool in
  st.queue <- [];
  List.iter (fun j -> deliver_failed st j ~crash:true "crash loop") open_jobs;
  begin_drain st;
  finish_drain st;
  raise (Error "worker pool is crash-looping")

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

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
  (* the fds a client can make readable, which no worker may keep *)
  let own_fds st =
    (match st.listen_fd with Some fd -> [ fd ] | None -> [])
    @ [ st.sig_r ]
    @ List.map (fun c -> c.cl_fd) st.clients
  in
  let self = ref None in
  let pool =
    Pool.create ~log:(say cfg) ~entry:Worker.main
      ~close:(fun () ->
        sig_w :: (match !self with Some st -> own_fds st | None -> []))
      {
        Pool.size = cfg.pool;
        job_timeout = cfg.job_timeout;
        grace = cfg.grace;
        heartbeat = cfg.heartbeat;
        recycle_jobs = cfg.recycle_jobs;
        recycle_rss_mb = cfg.recycle_rss_mb;
      }
  in
  let st =
    {
      cfg;
      pipeline;
      cache = Cache.create ~capacity:cfg.cache_capacity ~dir:cfg.cache_dir ();
      listen_fd = Some listen_fd;
      sig_r;
      sig_w;
      pool;
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
      latencies = [];
    }
  in
  self := Some st;
  let notify c _ =
    try ignore (Unix.write_substring st.sig_w c 0 1)
    with Unix.Unix_error _ -> ()
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (notify "t"));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (notify "t"));
  (try Sys.set_signal Sys.sighup (Sys.Signal_handle (notify "h"))
   with Invalid_argument _ | Sys_error _ -> ());
  verbose st "serving on %s (pool %d, cache %s)" cfg.socket_path cfg.pool
    (match cfg.cache_dir with Some d -> d | None -> "memory-only");
  let rec loop () =
    if drained st then finish_drain st
    else begin
      let readable, events = Pool.wait st.pool ~fds:(own_fds st) () in
      (* results first: a request arriving in the same round then finds
         them cached *)
      List.iter (on_event st) events;
      if List.mem st.sig_r readable then handle_signals st;
      (match st.listen_fd with
      | Some fd when List.mem fd readable -> accept_client st fd
      | _ -> ());
      List.iter
        (fun cl -> if List.mem cl.cl_fd readable then client_readable st cl)
        st.clients;
      if (not st.draining) || st.queue <> [] then dispatch st;
      loop ()
    end
  in
  (* the workers start before the first request *)
  match
    ignore (Pool.idle st.pool : bool);
    loop ()
  with
  | () -> ()
  | exception Pool.Crash_loop -> crash_loop st
