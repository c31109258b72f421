(* The serving workloads: the harness starts [Serve.Daemon] (pool 2,
   private socket and cache directory) in its own process and drives it
   over one client connection in a closed loop.  Requests are modules of
   several matmul-chain functions.

   - serve-warm: every request resends an unchanged module, so every
     function is a cache hit.
   - serve-mixed: most requests do the same, but one in [edit_every]
     changes one function to one sent nowhere else in the epoch, so there
     is exactly one miss, which a worker compiles and the daemon commits to
     its disk cache.  Its latency metrics are those of the edited
     requests.

   The daemon prunes its disk cache after every commit by stat-ing every
   entry, so a cold request gets slower as the cache grows.  The run is
   therefore cut into epochs, each on a fresh daemon with an empty cache,
   and every epoch sends the same seeded requests: the work of a request
   depends on its place in the epoch, never on elapsed time.  Each epoch
   starts with the timed set-up. *)

module P = Dialegg.Pipeline
open Common

let n_modules = 32
let edit_every = 10
let epoch_requests = 1000

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type fn = { f_name : string; f_dims : int list; f_text : string }

let make_fn name dims =
  let src = Workloads.Matmul_chain.source_chain dims in
  let head = "func.func @mm_chain(" in
  if not (String.starts_with ~prefix:head src) then failwith "unexpected matmul-chain source";
  let rest = String.sub src (String.length head) (String.length src - String.length head) in
  { f_name = name; f_dims = dims; f_text = Printf.sprintf "func.func @%s(%s" name rest }

(* Slot k of every module holds a chain of [slot_lengths.(k)] matmuls, so
   every module, and every edit of a slot, does the same work whatever
   the seed.  Dimensions are distinct for the reason given at
   [Inproc.distinct_dims]. *)
let slot_lengths = [| 6; 8; 10 |]
let funcs_per_module = Array.length slot_lengths

let module_text fns = String.concat "" (List.map (fun f -> f.f_text) fns)

type request = { rq_module : int; rq_edit : (int * fn) option; rq_text : string }

type kind = Warm | Mixed

(* The base modules and the seeded requests of an epoch.  In serve-mixed,
   one request in every [edit_every], at a seeded place in its block,
   edits one function of its module: the function in the next slot in
   turn is replaced, for that one request, with a chain sent nowhere else
   in the epoch.  So each slot gets the same number of misses. *)
let stream kind ~seed =
  let rng = Workloads.Rng.create ((seed * 7919) + 17) in
  let seen = Hashtbl.create 1024 in
  let rec fresh name slot =
    let dims = Inproc.distinct_dims ~n:slot_lengths.(slot) ~seed:(Workloads.Rng.int rng 1_000_000_000) in
    let f = make_fn name dims in
    if Hashtbl.mem seen f.f_text then fresh name slot
    else begin
      Hashtbl.replace seen f.f_text ();
      f
    end
  in
  let modules =
    Array.init n_modules (fun m ->
        List.init funcs_per_module (fun k -> fresh (Printf.sprintf "mm%d_%d" m k) k))
  in
  let edit_at = ref 0 and edits = ref 0 in
  let request i =
    if i mod edit_every = 0 then edit_at := i + Workloads.Rng.int rng edit_every;
    let m = Workloads.Rng.int rng n_modules in
    if kind = Mixed && i = !edit_at then begin
      let slot = !edits mod funcs_per_module in
      incr edits;
      let edit = fresh (List.nth modules.(m) slot).f_name slot in
      let fns = List.mapi (fun k f -> if k = slot then edit else f) modules.(m) in
      { rq_module = m; rq_edit = Some (slot, edit); rq_text = module_text fns }
    end
    else { rq_module = m; rq_edit = None; rq_text = module_text modules.(m) }
  in
  (modules, List.init epoch_requests request)

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let pipeline ~dir =
  {
    P.default_config with
    P.rules = Dialegg.Rules.matmul_assoc;
    vet_cache_dir = Some (Filename.concat dir "vet-cache");
  }

type daemon = { d_pid : int; d_client : Serve.Client.t }

let live = ref []

let stop d =
  (try Serve.Client.close d.d_client with _ -> ());
  (try Unix.kill d.d_pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.d_pid);
  live := List.filter (fun p -> p <> d.d_pid) !live

(* Drain any daemon still running (an aborted run); the daemon reaps its
   workers before it exits. *)
let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let daemon_config ~dir =
  {
    Serve.Daemon.default_config with
    Serve.Daemon.socket_path = Filename.concat dir "d.sock";
    pool = 2;
    cache_dir = Some (Filename.concat dir "results");
    pipeline = pipeline ~dir;
  }

(* The daemon process: [perfbench --serve-daemon DIR]. *)
let daemon_main dir =
  Mlir.Registry.ensure_registered ();
  Serve.Daemon.run (daemon_config ~dir)

(* Start a daemon on [dir] as a fresh process image, so its memory does
   not include the harness's heap, and connect once it answers a ping;
   the ping is retried every 0.5 ms so start-up is timed without sleep
   steps.  Its stdout goes to the compiler log with its stderr. *)
let start ~dir =
  let socket_path = (daemon_config ~dir).Serve.Daemon.socket_path in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-daemon"; dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let deadline = now_ms () +. 60_000. in
  let rec await () =
    if now_ms () > deadline then failwith "daemon did not answer a ping within 60 s";
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
      live := List.filter (fun q -> q <> pid) !live;
      failwith "daemon exited during start-up"
    | _ -> (
      match Serve.Client.connect socket_path with
      | c when (try Serve.Client.ping c with Serve.Client.Error _ -> false) -> c
      | c ->
        Serve.Client.close c;
        Unix.sleepf 0.0005;
        await ()
      | exception Serve.Client.Error _ ->
        Unix.sleepf 0.0005;
        await ())
  in
  { d_pid = pid; d_client = await () }

(* ------------------------------------------------------------------ *)
(* Epochs                                                              *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_cold : bool;
  s_client_ms : float;
  s_daemon_ms : float;
  s_marks : int;  (** functions in the reply *)
  s_hits : int;  (** of those, memory or disk hits *)
  s_hits_disk : int;
  s_reply : (string, string) result;  (** the output, if the reply is clean *)
}

let is_hit = function
  | Serve.Protocol.Sv_hit_mem | Serve.Protocol.Sv_hit_disk -> true
  | Serve.Protocol.Sv_miss -> false

(* A reply passes if it is clean and has the cache marks its kind
   promises: all hits, or exactly one miss, on the edited function. *)
let send d rq =
  let t0 = now_ms () in
  let reply =
    try Ok (Serve.Client.optimize ~retries:0 d.d_client rq.rq_text)
    with e -> Error (Printexc.to_string e)
  in
  let client_ms = now_ms () -. t0 in
  let marks = match reply with Ok r -> r.Serve.Protocol.sv_marks | Error _ -> [] in
  let checked =
    Result.bind reply (fun r ->
        let marks_ok =
          List.length marks = funcs_per_module
          &&
          match (rq.rq_edit, List.filter (fun (_, m) -> not (is_hit m)) marks) with
          | None, [] -> true
          | Some (_, f), [ (name, _) ] -> name = f.f_name
          | _ -> false
        in
        if r.Serve.Protocol.sv_degraded <> 0 then Error "degraded reply"
        else if not marks_ok then Error "unexpected cache marks"
        else Ok r.Serve.Protocol.sv_output)
  in
  {
    s_cold = rq.rq_edit <> None;
    s_client_ms = client_ms;
    s_daemon_ms =
      (match reply with Ok r -> r.Serve.Protocol.sv_latency_s *. 1000. | Error _ -> 0.);
    s_marks = List.length marks;
    s_hits = List.length (List.filter (fun (_, m) -> is_hit m) marks);
    s_hits_disk = List.length (List.filter (fun (_, m) -> m = Serve.Protocol.Sv_hit_disk) marks);
    s_reply = checked;
  }

type epoch = {
  e_setup_ms : float;  (** daemon start to first ping answer, plus the first sends *)
  e_first : (string, string) result array;  (** the first reply to every module *)
  e_sent : (request * sample) list;
  e_loop_ms : float;
  e_rss : float;  (** peak RSS of the daemon and its workers *)
  e_stats : Serve.Protocol.daemon_stats;
  e_entries : int;  (** files in the epoch's private caches at its end *)
}

let epoch ~run_dir ~index modules requests =
  let dir = fresh_dir run_dir (Printf.sprintf "epoch-%d" index) in
  let t0 = now_ms () in
  let d = start ~dir in
  let first =
    Array.map
      (fun fns ->
        try Ok (Serve.Client.optimize ~retries:0 d.d_client (module_text fns)).Serve.Protocol.sv_output
        with e -> Error (Printexc.to_string e))
      modules
  in
  let setup_ms = now_ms () -. t0 in
  let sent = ref [] in
  let t1 = now_ms () in
  List.iter (fun rq -> sent := (rq, send d rq) :: !sent) requests;
  let loop_ms = now_ms () -. t1 in
  let rss =
    List.fold_left (fun acc pid -> acc +. vmhwm_mb pid) 0. (d.d_pid :: children_of d.d_pid)
  in
  let stats = Serve.Client.stats d.d_client in
  stop d;
  let entries =
    count_files (Filename.concat dir "results") + count_files (Filename.concat dir "vet-cache")
  in
  rm_rf dir;
  {
    e_setup_ms = setup_ms;
    e_first = first;
    e_sent = List.rev !sent;
    e_loop_ms = loop_ms;
    e_rss = rss;
    e_stats = stats;
    e_entries = entries;
  }

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let funcs_of text =
  List.filter_map
    (fun op ->
      if op.Mlir.Ir.op_name = "func.func" then Some (Mlir.Printer.op_to_string op) else None)
    (Mlir.Ir.module_ops (Mlir.Parser.parse_module text))

(* References from in-process cold [optimize_source] runs.  Base modules
   and warm replies are compared whole.  A cold reply is compared
   function by function, the unit the daemon compiles and caches: the
   edited function against a compile of that function alone, the others
   against the base module's reference.  That costs one compile per
   edited request instead of one per function of its module, and every
   epoch sends the same requests, so each is compiled once.  The base
   modules' functions and the edited functions also go through the
   interpreter oracle.  Returns the problems and the speedup geomean over
   those functions. *)
let check ~seed ~run_dir modules requests epochs =
  let cfg = pipeline ~dir:(fresh_dir run_dir "reference") in
  let base = Array.map (fun fns -> Inproc.compile cfg (module_text fns)) modules in
  let problems = ref [] and speedups = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let oracle what func dims src out =
    match Inproc.chain_oracle ~seed ~func dims src out with
    | Ok (Some s) -> speedups := s :: !speedups
    | Ok None -> ()
    | Error e -> problem "%s: %s" what e
  in
  Array.iteri
    (fun m fns ->
      match base.(m) with
      | Error e -> problem "module %d: in-process compile failed: %s" m e
      | Ok expected ->
        List.iter
          (fun f -> oracle (Printf.sprintf "module %d" m) f.f_name f.f_dims (module_text fns) expected)
          fns)
    modules;
  let base_funcs = Array.map (Result.map funcs_of) base in
  (* the expected functions of each edited request's reply *)
  let expected =
    List.mapi
      (fun i rq ->
        match rq.rq_edit with
        | None -> Error "not edited"
        | Some (slot, f) ->
          Result.bind base_funcs.(rq.rq_module) (fun fs ->
              Result.map
                (fun edited ->
                  oracle (Printf.sprintf "request %d" i) f.f_name f.f_dims f.f_text edited;
                  List.mapi (fun j t -> if j = slot then List.hd (funcs_of edited) else t) fs)
                (Inproc.compile cfg f.f_text)))
      requests
  in
  List.iteri
    (fun k e ->
      Array.iteri
        (fun m r -> if r <> base.(m) then problem "epoch %d: first reply to module %d differs" k m)
        e.e_first;
      List.iteri
        (fun i ((rq, s), expected) ->
          match (s.s_reply, rq.rq_edit) with
          | Error err, _ -> problem "epoch %d request %d: %s" k i err
          | Ok out, None ->
            if Ok out <> base.(rq.rq_module) then problem "epoch %d request %d: warm reply differs" k i
          | Ok out, Some _ ->
            if Ok (funcs_of out) <> expected then
              problem "epoch %d request %d: cold reply differs from optimize_source" k i)
        (List.combine e.e_sent expected))
    epochs;
  (List.rev !problems, Stats.geomean !speedups)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* Latencies aggregate per request kind: warm, or cold by the length of
   the edited chain, so that misses of different cost are not pooled. *)
let kind_name rq =
  match rq.rq_edit with
  | None -> "warm"
  | Some (slot, _) -> Printf.sprintf "cold-%dMM" slot_lengths.(slot)

let timed kind ~seed ~seconds ~run_dir : outcome =
  Mlir.Registry.ensure_registered ();
  let modules, requests = stream kind ~seed in
  let deadline = now_ms () +. (seconds *. 1000.) in
  let rec go acc =
    if acc <> [] && now_ms () >= deadline then List.rev acc
    else go (epoch ~run_dir ~index:(List.length acc) modules requests :: acc)
  in
  let epochs = go [] in
  let sent = List.concat_map (fun e -> e.e_sent) epochs in
  (* serve-mixed's latencies are its edited requests' alone: pooled with
     the hits, a slower miss would barely move them *)
  let measured (rq, s) =
    if kind = Mixed && rq.rq_edit = None then None else Some (kind_name rq, s.s_client_ms)
  in
  let by_epoch = List.map (fun e -> List.filter_map measured e.e_sent) epochs in
  let problems, speedup = check ~seed ~run_dir modules requests epochs in
  let failed = List.length (List.filter (fun (_, s) -> Result.is_error s.s_reply) sent) in
  let attempted = List.length sent in
  Inproc.summarize (List.map (fun (rq, s) -> (kind_name rq, s.s_client_ms)) sent);
  say "%d epochs of %d requests\n" (List.length epochs) epoch_requests;
  {
    correct = problems = [];
    attempted;
    failed;
    problems;
    metrics =
      Inproc.end_to_end ~slices:by_epoch ~tail:(List.concat by_epoch)
        ~throughput:(float_of_int attempted *. 1000. /. List.fold_left (fun acc e -> acc +. e.e_loop_ms) 0. epochs)
        ~speedup
        ~rss:(List.fold_left (fun acc e -> Float.max acc e.e_rss) 0. epochs)
        ~setup_s:(Stats.median (List.map (fun e -> e.e_setup_ms) epochs) /. 1000.);
  }

(* The serving-layer metrics of a traced run. *)
let layer_metrics =
  [
    ("serve.daemon.warm_ms", "ms");
    ("serve.transport.warm_ms", "ms");
    ("serve.cache.hit_ratio", "fraction");
    ("serve.cache.hits_disk", "count");
    ("serve.daemon.shed", "count");
    ("serve.daemon.respawns", "count");
  ]

(* serve-mixed's misses, which serve-warm does not send *)
let cold_layer_metrics =
  [
    ("serve.daemon.cold_ms", "ms");
    ("serve.transport.cold_ms", "ms");
    ("serve.worker.compile_ms", "ms");
    ("serve.daemon.cold_overhead_ms", "ms");
  ]

(* A traced run is one epoch: fixed work, so two traced runs agree on
   every count.  The worker jobs replayed in-process are serve-mixed's
   edited functions, or for serve-warm the base modules' functions, which
   the workers compiled during set-up. *)
let traced kind ~seed ~run_dir : outcome =
  Mlir.Registry.ensure_registered ();
  let modules, requests = stream kind ~seed in
  let e = epoch ~run_dir ~index:0 modules requests in
  let problems, _ = check ~seed ~run_dir modules requests [ e ] in
  let cold = List.filter (fun (_, s) -> s.s_cold) e.e_sent in
  let warm = List.filter (fun (_, s) -> not s.s_cold) e.e_sent in
  (* 0 for a kind the epoch did not send *)
  let mean f = function [] -> 0. | xs -> Stats.mean (List.map (fun (_, s) -> f s) xs) in
  (* each worker job, printed as the daemon sends it, replayed in-process
     under the daemon's pre-warmed config *)
  let worker_cfg = P.prewarmed (pipeline ~dir:(fresh_dir run_dir "worker")) in
  let jobs =
    match kind with
    | Warm -> List.concat_map (fun fns -> funcs_of (module_text fns)) (Array.to_list modules)
    | Mixed ->
      List.filter_map
        (fun (rq, _) -> Option.map (fun (slot, _) -> List.nth (funcs_of rq.rq_text) slot) rq.rq_edit)
        cold
  in
  let pass () =
    in_child (fun () ->
        List.map
          (fun src ->
            let t0 = now_ms () in
            let untraced = Inproc.compile worker_cfg src in
            let ms = now_ms () -. t0 in
            let traced =
              try Ok (Replica.optimize_source worker_cfg src) with ex -> Error (Printexc.to_string ex)
            in
            (ms, untraced, traced))
          jobs)
  in
  let p1 = pass () in
  let p2 = pass () in
  let reqs p = List.filter_map (fun (_, _, t) -> Result.to_option (Result.map snd t)) p in
  let replica_diffs =
    List.filter_map
      (fun (_, u, t) ->
        match (u, t) with
        | Ok a, Ok (b, _) when String.equal a b -> None
        | Ok _, Ok _ -> Some "replica output differs from optimize_source"
        | Error err, _ | _, Error err -> Some err)
      p1
  in
  let compile_ms = Stats.mean (List.map (fun (ms, _, _) -> ms) p1) in
  let untraced_total = List.fold_left (fun acc (ms, _, _) -> acc +. ms) 0. p1 in
  let traced_total = List.fold_left (fun acc r -> acc +. r.Replica.r_total_ms) 0. (reqs p1) in
  let problems = problems @ replica_diffs @ Replica.compare_passes (reqs p1) (reqs p2) in
  let total f = List.fold_left (fun acc (_, s) -> acc + f s) 0 e.e_sent in
  let daemon_cold = mean (fun s -> s.s_daemon_ms) cold in
  (* in the order of [layer_metrics] *)
  let serve_values =
    [
      mean (fun s -> s.s_daemon_ms) warm;
      mean (fun s -> s.s_client_ms -. s.s_daemon_ms) warm;
      float_of_int (total (fun s -> s.s_hits)) /. float_of_int (max 1 (total (fun s -> s.s_marks)));
      float_of_int (total (fun s -> s.s_hits_disk));
      float_of_int e.e_stats.Serve.Protocol.ds_shed;
      float_of_int e.e_stats.Serve.Protocol.ds_respawns;
    ]
  in
  (* in the order of [cold_layer_metrics] *)
  let cold_values =
    [
      daemon_cold;
      mean (fun s -> s.s_client_ms -. s.s_daemon_ms) cold;
      compile_ms;
      daemon_cold -. compile_ms;
    ]
  in
  {
    correct = problems = [];
    attempted = List.length e.e_sent;
    failed = List.length (List.filter (fun (_, s) -> Result.is_error s.s_reply) e.e_sent);
    problems;
    metrics =
      Replica.metrics (reqs p1)
      @ [
          metric "dialegg.disk_cache.entries" "count" (float_of_int e.e_entries);
          metric "trace.overhead_frac" "fraction" ((traced_total /. untraced_total) -. 1.);
        ]
      @ List.map2 (fun (name, u) v -> metric name u v) layer_metrics serve_values
      @ (match kind with
        | Warm -> []
        | Mixed -> List.map2 (fun (name, u) v -> metric name u v) cold_layer_metrics cold_values);
  }
