(* dialegg-serve: persistent optimization daemon.  Listens on a Unix-domain
   socket, keeps a pool of pre-warmed workers, and memoizes per-function
   results in a content-addressed cache.  SIGTERM drains gracefully;
   SIGHUP atomically reloads the ruleset. *)

open Cmdliner

let run socket egg_file pool max_queue retries job_timeout grace heartbeat
    recycle_jobs recycle_rss_mb cache_dir cache_capacity iterations max_nodes
    timeout on_limit no_dce no_validate fault verbose =
  try
    let rules =
      match egg_file with
      | Some f -> In_channel.with_open_bin f In_channel.input_all
      | None -> ""
    in
    let pipeline =
      {
        Dialegg.Pipeline.default_config with
        rules;
        max_iterations = iterations;
        max_nodes;
        timeout = Some timeout;
        on_limit;
        run_dce = not no_dce;
        validate = not no_validate;
        vet_cache_dir = cache_dir;
      }
    in
    let cfg =
      {
        Serve.Daemon.socket_path = socket;
        pool;
        max_queue;
        retries;
        job_timeout;
        grace;
        heartbeat;
        recycle_jobs;
        recycle_rss_mb;
        cache_dir =
          (match cache_dir with
          | Some _ -> cache_dir
          | None -> Dialegg.Disk_cache.default_dir ());
        cache_capacity;
        pipeline;
        rules_path = egg_file;
        fault;
        verbose;
      }
    in
    Serve.Daemon.run cfg;
    `Ok ()
  with
  | Serve.Daemon.Error e -> `Error (false, e)
  | Sys_error _ as e when Serve.Cli.is_epipe e -> raise e
  | Sys_error e -> `Error (false, e)
  | Dialegg.Pipeline.Error e -> `Error (false, "pipeline error: " ^ e)

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to serve on (created; unlinked on drain)")

let egg_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "egg" ] ~docv:"RULES.egg"
        ~doc:
          "Egglog rules file.  Re-read and re-verified on SIGHUP; a failing \
           reload keeps the old ruleset serving")

let pool = Arg.(value & opt int 2 & info [ "pool" ] ~doc:"Worker subprocesses")

let max_queue =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ]
        ~doc:
          "Bounded admission: maximum queued function jobs before new \
           requests are shed with an overloaded reply (cache hits are \
           always served)")

let retries =
  Arg.(
    value & opt int 2
    & info [ "retries" ]
        ~doc:"Attempts per function job (budgets tighten each retry) before \
              degrading to the identity body")

let job_timeout =
  Arg.(value & opt float 60. & info [ "job-timeout" ] ~doc:"Per-attempt worker watchdog (s)")

let grace =
  Arg.(value & opt float 1. & info [ "grace" ] ~doc:"SIGTERM to SIGKILL escalation delay (s)")

let heartbeat =
  Arg.(
    value & opt float 5.
    & info [ "heartbeat" ]
        ~doc:"Ping idle workers this often (s); a missed pong respawns the \
              worker.  0 disables")

let recycle_jobs =
  Arg.(
    value & opt int 256
    & info [ "recycle-jobs" ] ~doc:"Retire a worker after this many jobs (0 = never)")

let recycle_rss_mb =
  Arg.(
    value & opt float 2048.
    & info [ "recycle-rss-mb" ]
        ~doc:"Retire a worker whose resident set crosses this watermark (0 = never)")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Result / static-verdict cache directory (default \
           $(b,\\$DIALEGG_VET_CACHE) or the system temp dir; size-capped by \
           $(b,\\$DIALEGG_CACHE_MAX_MB))")

let cache_capacity =
  Arg.(
    value & opt int 512
    & info [ "cache-capacity" ] ~doc:"In-process LRU result entries")

let iterations =
  Arg.(value & opt int 64 & info [ "iterations"; "max-iters"; "i" ] ~doc:"Max saturation iterations")

let max_nodes =
  Arg.(value & opt int 100_000 & info [ "max-nodes" ] ~doc:"E-graph node budget")

let timeout =
  Arg.(value & opt float 30.0 & info [ "timeout" ] ~doc:"Per-function saturation timeout (s)")

let on_limit =
  Arg.(
    value
    & opt (enum Dialegg.Pipeline.on_limits) Dialegg.Pipeline.Fail
    & info [ "on-limit" ] ~docv:"POLICY"
        ~doc:"Degradation policy: $(b,fail), $(b,best-effort) or $(b,identity)")

let no_dce = Arg.(value & flag & info [ "no-dce" ] ~doc:"Skip dead-code elimination after extraction")

let no_validate =
  Arg.(value & flag & info [ "no-validate" ] ~doc:"Skip translation validation")

let fault =
  let fault_conv =
    Arg.conv
      ( (fun s ->
          match Dialegg.Faults.parse_serve s with
          | Ok f -> Ok f
          | Error e -> Error (`Msg e)),
        fun ppf f -> Fmt.string ppf (Dialegg.Faults.serve_fault_to_string f) )
  in
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject-serve-fault" ] ~docv:"KIND[:N]"
        ~doc:
          "Testing: arm a deterministic daemon-level fault (kinds: \
           cache-corrupt|worker-hang-under-load|mid-drain-kill; N = the \
           1-based request/dispatch ordinal it triggers at)")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Narrate lifecycle decisions on stderr")

let cmd =
  let doc = "fault-tolerant persistent optimization daemon with a content-addressed result cache" in
  Cmd.v
    (Cmd.info "dialegg-serve" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const run $ socket $ egg_file $ pool $ max_queue $ retries
        $ job_timeout $ grace $ heartbeat $ recycle_jobs $ recycle_rss_mb
        $ cache_dir $ cache_capacity $ iterations $ max_nodes $ timeout
        $ on_limit $ no_dce $ no_validate $ fault $ verbose))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
