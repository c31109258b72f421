(* dialegg-batch: supervised multi-process batch driver.  Shards a
   directory of .mlir files (or the functions of one multi-function
   module) over a bounded pool of forked workers, with a per-job
   watchdog, retry/backoff, identity-fallback degradation, and a
   crash-safe journal for --resume. *)

open Cmdliner

exception Usage of string

let run input egg_file output jobs retries job_timeout grace backoff_ms resume
    faults iterations max_nodes timeout max_memory_mb on_limit no_vet no_audit
    show_stats quiet verbose =
  try
    let rules =
      match egg_file with
      | Some f -> In_channel.with_open_bin f In_channel.input_all
      | None -> ""
    in
    if egg_file = None then
      Fmt.epr "%a@." Egglog.Diag.pp
        (Egglog.Diag.warning "no-rules"
           "no --egg rules file given: saturating with zero rewrite rules, \
            outputs will match inputs");
    let pipeline =
      {
        Dialegg.Pipeline.default_config with
        rules;
        max_iterations = iterations;
        max_nodes;
        timeout = Some timeout;
        max_memory_mb;
        on_limit;
        vet = not no_vet;
        audit = not no_audit;
      }
    in
    (* the static tiers once in the supervisor, failing fast before any
       worker forks; a repeat invocation over the same ruleset hits the
       on-disk verdict, and the supervisor's own read is a memory hit *)
    let vet_result, audit_result = Dialegg.Pipeline.static_tiers_exn pipeline in
    if show_stats then begin
      let line pp_summary (r, status) =
        Fmt.epr "%a [%s]@." pp_summary r (Dialegg.Disk_cache.status_name status)
      in
      Option.iter (line Dialegg.Vet.pp_summary) vet_result;
      Option.iter (line Dialegg.Audit.pp_summary) audit_result
    end;
    let config journal_path =
      {
        Serve.Supervisor.pool = jobs;
        retries;
        job_timeout;
        grace;
        backoff = backoff_ms /. 1000.;
        pipeline;
        faults;
        journal_path;
        resume;
        verbose;
      }
    in
    if Sys.is_directory input then begin
      (* directory mode: one job per file, journaled, resumable *)
      let out_dir =
        match output with
        | Some d -> d
        | None -> raise (Usage "directory input requires -o OUTPUT_DIR")
      in
      if Sys.file_exists out_dir && not (Sys.is_directory out_dir) then
        raise (Usage (out_dir ^ " exists and is not a directory"));
      if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
      let journal = Filename.concat out_dir ".dialegg-journal" in
      let batch_jobs = Serve.Queue.shard_dir ~input_dir:input ~out_dir in
      let report =
        Serve.Supervisor.run ~config:(config (Some journal)) batch_jobs
      in
      if not quiet then Fmt.epr "%a" Serve.Supervisor.pp_report report;
      if Serve.Supervisor.report_ok report then `Ok ()
      else `Error (false, "some jobs failed outright; see the report above")
    end
    else begin
      (* module mode: one job per function, results spliced back *)
      if resume then
        raise (Usage "--resume only applies to directory batches");
      let src = In_channel.with_open_bin input In_channel.input_all in
      let m =
        try Mlir.Parser.parse_module src
        with Mlir.Parser.Syntax_error { line; col; msg } ->
          let pos = { Egglog.Sexp.line; col } in
          Fmt.epr "%a@." Egglog.Diag.pp
            (Egglog.Diag.error ~file:input
               ~span:{ Egglog.Sexp.sp_start = pos; sp_end = pos }
               "mlir-parse" "%s" msg);
          exit 1
      in
      (match
         Dialegg.Validate.verify_diags ~file:input ~code:"invalid-input" m
       with
      | [] -> ()
      | diags ->
        Fmt.epr "%a@." Egglog.Diag.pp_list diags;
        exit 1);
      let batch_jobs = Serve.Queue.shard_module ~path:input m in
      if batch_jobs = [] then raise (Usage "input has no func.func to optimize");
      let report = Serve.Supervisor.run ~config:(config None) batch_jobs in
      Serve.Supervisor.splice_results m report;
      if not quiet then Fmt.epr "%a" Serve.Supervisor.pp_report report;
      let text = Mlir.Printer.module_to_string m in
      (match output with
      | Some path -> Serve.Atomic_io.write_atomic ~path text
      | None -> print_string text);
      if Serve.Supervisor.report_ok report then `Ok ()
      else `Error (false, "some jobs failed outright; see the report above")
    end
  with
  | Usage e -> raise (Serve.Cli.Usage_error e)
  | Sys_error _ as e when Serve.Cli.is_epipe e -> raise e
  | Sys_error e -> `Error (false, e)
  | Serve.Queue.Error e -> `Error (false, e)
  | Serve.Supervisor.Error e -> `Error (false, e)
  | Mlir.Parser.Error e -> `Error (false, "parse error: " ^ e)
  | Mlir.Parser.Syntax_error { line; col; msg } ->
    `Error (false, Printf.sprintf "%d:%d: parse error: %s" line col msg)
  | Dialegg.Pipeline.Error e -> `Error (false, "pipeline error: " ^ e)
  | Egglog.Parser.Error e -> `Error (false, "egglog parse error: " ^ e)
  | Failure e -> `Error (false, e)

let input =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"INPUT"
        ~doc:
          "A directory of $(b,.mlir) files (one job per file) or a single \
           multi-function module (one job per function)")

let egg_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "egg" ] ~docv:"RULES.egg"
        ~doc:"Egglog file with user declarations and rewrite rules")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT"
        ~doc:
          "Output directory (directory mode, required) or output file \
           (module mode, default stdout)")

let jobs =
  Arg.(
    value & opt int 4
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Max concurrent worker processes")

let retries =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retries per job after the first attempt; each retry halves the \
           saturation budgets")

let job_timeout =
  Arg.(
    value & opt float 60.0
    & info [ "job-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-job wall-clock watchdog: past this the worker gets SIGTERM, \
           then SIGKILL after the grace period")

let grace =
  Arg.(
    value & opt float 1.0
    & info [ "grace" ] ~docv:"SECONDS"
        ~doc:"Delay between the watchdog's SIGTERM and its SIGKILL")

let backoff_ms =
  Arg.(
    value & opt float 50.0
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:"Base retry delay in milliseconds; doubles per attempt")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay the output directory's journal and skip jobs that already \
           completed with their outputs intact (directory mode only)")

let faults =
  let fault_conv =
    Arg.conv
      ( (fun s ->
          match Dialegg.Faults.parse_proc s with
          | Ok f -> Ok f
          | Error e -> Error (`Msg e)),
        fun ppf f -> Fmt.string ppf (Dialegg.Faults.proc_fault_to_string f) )
  in
  Arg.(
    value
    & opt_all fault_conv []
    & info [ "inject-worker-fault" ] ~docv:"JOB:KIND[:N]"
        ~doc:
          "Testing: make the worker running job $(i,JOB) die with \
           $(i,KIND) (worker-hang|worker-segv|worker-garbage|worker-oom), \
           on every attempt or only the first $(i,N) attempts.  Repeatable.")

let iterations =
  Arg.(
    value & opt int 64
    & info [ "iterations"; "max-iters"; "i" ] ~doc:"Max saturation iterations")

let max_nodes =
  Arg.(value & opt int 100_000 & info [ "max-nodes" ] ~doc:"E-graph node budget")

let timeout =
  Arg.(
    value & opt float 30.0
    & info [ "timeout" ] ~doc:"Per-function saturation timeout (s)")

let max_memory_mb =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-memory-mb" ]
        ~doc:"Approximate e-graph memory budget in megabytes (off by default)")

let on_limit =
  Arg.(
    value
    & opt (enum Dialegg.Pipeline.on_limits) Dialegg.Pipeline.Fail
    & info [ "on-limit" ] ~docv:"POLICY"
        ~doc:
          "In-worker resource-limit policy, as in $(b,dialegg-opt): \
           $(b,fail) makes a limit hit cost the job an attempt (default), \
           $(b,best-effort)/$(b,identity) degrade inside the worker instead")

let no_vet =
  Arg.(
    value & flag
    & info [ "no-vet" ]
        ~doc:
          "Ignore the vet part of the ruleset's static verdict, which the \
           supervisor otherwise reports before dispatching any job")

let no_audit =
  Arg.(
    value & flag
    & info [ "no-audit" ]
        ~doc:
          "Ignore the encoding-audit part of the ruleset's static verdict, \
           which the supervisor otherwise reports before dispatching any job")

let show_stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the ruleset vet and encoding-audit summaries and their \
           cache status (computed vs memo hit) to stderr")

let quiet =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the batch report")

let verbose =
  Arg.(
    value & flag
    & info [ "verbose" ]
        ~doc:"Narrate dispatches, kills and retries on stderr")

let cmd =
  let doc = "supervised multi-process batch driver for dialegg-opt" in
  Cmd.v
    (Cmd.info "dialegg-batch" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const run $ input $ egg_file $ output $ jobs $ retries $ job_timeout
        $ grace $ backoff_ms $ resume $ faults $ iterations $ max_nodes
        $ timeout $ max_memory_mb $ on_limit $ no_vet $ no_audit $ show_stats
        $ quiet $ verbose))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
