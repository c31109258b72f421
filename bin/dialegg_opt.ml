(* dialegg-opt: the artifact's `egg-opt` equivalent.  Reads an MLIR file and
   an Egglog rules file, optimizes every function with equality saturation,
   and prints the optimized MLIR. *)

open Cmdliner

exception Usage of string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run input egg_file output iterations max_nodes timeout timeout_ms
    max_memory_mb on_limit inject_fault no_dce funcs show_timings dump_egg
    lint_only vet_only no_vet audit_only no_audit show_stats naive_matching
    no_validate analyze =
  try
    Serve.Atomic_io.install_signal_cleanup ();
    let rules = match egg_file with Some f -> read_file f | None -> "" in
    if lint_only then begin
      (* check the rules and stop: no MLIR input needed *)
      match egg_file with
      | None -> raise (Serve.Cli.Usage_error "--lint requires an --egg rules file to check")
      | Some f ->
        let diags = Dialegg.Lint.lint_rules ~file:f rules in
        List.iter (fun d -> Fmt.epr "%a@." Egglog.Diag.pp d) diags;
        if Egglog.Diag.has_errors diags then exit 1;
        `Ok ()
    end
    else if vet_only then begin
      (* statically verify the rules and stop: no MLIR input needed *)
      match egg_file with
      | None -> raise (Serve.Cli.Usage_error "--vet requires an --egg rules file to check")
      | Some f ->
        let report, status = Dialegg.Vet.vet_cached ~file:f rules in
        List.iter (fun d -> Fmt.epr "%a@." Egglog.Diag.pp d) report.Dialegg.Vet.v_diags;
        Fmt.epr "%a [%s]@." Dialegg.Vet.pp_summary report
          (Dialegg.Vet.cache_status_name status);
        if Egglog.Diag.has_errors report.Dialegg.Vet.v_diags then exit 1;
        `Ok ()
    end
    else if audit_only then begin
      (* cross-check the rules against the dialect registry and stop *)
      match egg_file with
      | None -> raise (Serve.Cli.Usage_error "--audit requires an --egg rules file to check")
      | Some f ->
        let report, status = Dialegg.Audit.audit_cached ~file:f rules in
        List.iter (fun d -> Fmt.epr "%a@." Egglog.Diag.pp d) report.Dialegg.Audit.a_diags;
        Fmt.epr "%a [%s]@." Dialegg.Audit.pp_summary report
          (Dialegg.Audit.cache_status_name status);
        if Egglog.Diag.has_errors report.Dialegg.Audit.a_diags then exit 1;
        `Ok ()
    end
    else begin
    let input =
      match input with
      | Some i -> i
      | None -> raise (Usage "required argument INPUT.mlir is missing")
    in
    if egg_file = None && not (dump_egg || analyze) then
      Fmt.epr "%a@." Egglog.Diag.pp
        (Egglog.Diag.warning "no-rules"
           "no --egg rules file given: saturating with zero rewrite rules, the output will match the input");
    let src = read_file input in
    let m =
      try Mlir.Parser.parse_module src
      with Mlir.Parser.Syntax_error { line; col; msg } ->
        (* render parse failures like every other diagnostic: located, no
           backtrace, non-zero exit *)
        let pos = { Egglog.Sexp.line; col } in
        Fmt.epr "%a@." Egglog.Diag.pp
          (Egglog.Diag.error ~file:input
             ~span:{ Egglog.Sexp.sp_start = pos; sp_end = pos }
             "mlir-parse" "%s" msg);
        exit 1
    in
    (* uniform rendering with the rule lint and the round-trip validator *)
    (match Dialegg.Validate.verify_diags ~file:input ~code:"invalid-input" m with
    | [] -> ()
    | diags ->
      Fmt.epr "%a@." Egglog.Diag.pp_list diags;
      exit 1);
    if analyze then begin
      (* print per-value dataflow facts instead of optimizing *)
      List.iter
        (fun op ->
          if op.Mlir.Ir.op_name = "func.func"
             && (funcs = [] || List.mem (Mlir.Ir.func_name op) funcs)
          then Fmt.pr "%a" Mlir.Dataflow.Report.pp_func op)
        (Mlir.Ir.module_ops m);
      `Ok ()
    end
    else begin
    let timeout =
      match timeout_ms with Some ms -> ms /. 1000. | None -> timeout
    in
    let config =
      {
        Dialegg.Pipeline.default_config with
        rules;
        max_iterations = iterations;
        max_nodes;
        timeout = Some timeout;
        max_memory_mb;
        on_limit;
        inject = inject_fault;
        run_dce = not no_dce;
        validate = not no_validate;
        vet = not no_vet;
        audit = not no_audit;
        seminaive = not naive_matching;
      }
    in
    let only = match funcs with [] -> None | fs -> Some fs in
    if dump_egg then begin
      (* the Egglog translation of each selected function, made in the
         engine the optimizer would saturate it in; each between (push)
         and (pop), as each function has an engine of its own, so the
         dump of a module loads as one program *)
      List.iter
        (fun op ->
          if op.Mlir.Ir.op_name = "func.func"
             && (only = None || List.mem (Mlir.Ir.func_name op) (Option.value ~default:[] only))
          then begin
            let _, eggify, _, _ = Dialegg.Pipeline.setup_function config op in
            print_endline ("; function @" ^ Mlir.Ir.func_name op);
            print_endline "(push)";
            print_endline (Dialegg.Eggify.to_source eggify);
            print_endline "(pop)"
          end)
        (Mlir.Ir.module_ops m);
      `Ok ()
    end
    else begin
      let report = Dialegg.Pipeline.optimize_module_report ~config ?only m in
      let timings = report.Dialegg.Pipeline.r_timings in
      (* the per-function outcome report: always when asked for timings or
         stats, and unprompted whenever something degraded or hit a hard
         resource limit *)
      if show_timings || show_stats || not (Dialegg.Pipeline.report_clean report)
      then Fmt.epr "%a" Dialegg.Pipeline.pp_report report;
      if show_timings then
        Fmt.epr "%a@." Dialegg.Pipeline.pp_timings timings;
      if show_stats then begin
        (match report.Dialegg.Pipeline.r_vet with
        | Some (v, status) ->
          Fmt.epr "vet: %s@.%a@."
            (Dialegg.Vet.cache_status_name status)
            Dialegg.Vet.pp_classification v
        | None -> ());
        (match report.Dialegg.Pipeline.r_audit with
        | Some (a, status) ->
          Fmt.epr "audit: %s@.%a@."
            (Dialegg.Audit.cache_status_name status)
            Dialegg.Audit.pp_coverage a
        | None -> Fmt.epr "audit: disabled@.");
        Fmt.epr "stop reason: %a | peak e-graph size: %d nodes@."
          Egglog.Interp.pp_stop_reason timings.Dialegg.Pipeline.stop
          timings.Dialegg.Pipeline.peak_nodes;
        Fmt.epr "%a" Dialegg.Pipeline.pp_rule_stats timings.Dialegg.Pipeline.rule_stats
      end;
      let text = Mlir.Printer.module_to_string m in
      (match output with
      | Some path -> Serve.Atomic_io.write_atomic ~path text
      | None -> print_string text);
      `Ok ()
    end
    end
    end
  with
  | Usage e -> raise (Serve.Cli.Usage_error e)
  | Sys_error _ as e when Serve.Cli.is_epipe e -> raise e
  | Sys_error e -> `Error (false, e)
  | Mlir.Parser.Error e -> `Error (false, "parse error: " ^ e)
  | Mlir.Parser.Syntax_error { line; col; msg } ->
    `Error (false, Printf.sprintf "%d:%d: parse error: %s" line col msg)
  | Mlir.Typ.Parse_error e -> `Error (false, "type parse error: " ^ e)
  | Dialegg.Pipeline.Error e -> `Error (false, "pipeline error: " ^ e)
  | Egglog.Parser.Error e -> `Error (false, "egglog parse error: " ^ e)
  | Egglog.Interp.Error e | Egglog.Egraph.Error e | Egglog.Matcher.Error e | Egglog.Extract.Error e ->
    `Error (false, "egglog error: " ^ e)
  | Failure e -> `Error (false, e)
  | Stack_overflow -> `Error (false, "stack overflow")

let input =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"INPUT.mlir" ~doc:"MLIR input file (required unless $(b,--lint) is given)")

let egg_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "egg" ] ~docv:"RULES.egg" ~doc:"Egglog file with user declarations and rewrite rules")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT.mlir"
        ~doc:
          "Write the optimized module to $(docv) atomically (same-directory \
           temp file + rename, cleaned up on SIGINT/SIGTERM) instead of stdout")

let iterations =
  Arg.(
    value
    & opt int 64
    & info [ "iterations"; "max-iters"; "i" ] ~doc:"Max saturation iterations")

let max_nodes =
  Arg.(value & opt int 100_000 & info [ "max-nodes" ] ~doc:"E-graph node budget")

let timeout =
  Arg.(value & opt float 30.0 & info [ "timeout" ] ~doc:"Per-function saturation timeout (s)")

let timeout_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout-ms" ]
        ~doc:"Per-function saturation timeout in milliseconds (overrides $(b,--timeout))")

let max_memory_mb =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-memory-mb" ]
        ~doc:"Approximate e-graph memory budget in megabytes (off by default)")

let on_limit =
  let policies =
    Dialegg.Pipeline.
      [ ("fail", Fail); ("best-effort", Best_effort); ("identity", Identity) ]
  in
  Arg.(
    value
    & opt (enum policies) Dialegg.Pipeline.Fail
    & info [ "on-limit" ] ~docv:"POLICY"
        ~doc:
          "What to do when a function hits a resource limit or an internal \
           fault: $(b,fail) aborts (default), $(b,best-effort) keeps the best \
           extraction reachable within the budget, $(b,identity) keeps the \
           original function body")

let inject_fault =
  let fault_conv =
    Arg.conv
      ( (fun s ->
          match Dialegg.Faults.parse s with
          | Ok f -> Ok f
          | Error e -> Error (`Msg e)),
        fun ppf f -> Fmt.string ppf (Dialegg.Faults.to_string f) )
  in
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject-fault" ] ~docv:"STAGE:KIND"
        ~doc:
          "Testing: raise a deterministic fault at a pipeline stage boundary \
           (stages: eggify|saturate|extract|deeggify|validate; kinds: \
           exn|error|overflow).  The $(b,DIALEGG_INJECT_FAULT) environment \
           variable arms the same thing")

let no_dce = Arg.(value & flag & info [ "no-dce" ] ~doc:"Skip dead-code elimination after extraction")

let funcs =
  Arg.(value & opt_all string [] & info [ "function"; "f" ] ~doc:"Only optimize this function (repeatable)")

let show_timings = Arg.(value & flag & info [ "timings"; "t" ] ~doc:"Print the phase timing breakdown to stderr")

let dump_egg =
  Arg.(value & flag & info [ "dump-egg" ] ~doc:"Print the Egglog translation instead of optimizing")

let lint_only =
  Arg.(
    value & flag
    & info [ "lint" ]
      ~doc:"Only lint the $(b,--egg) rules file and exit (non-zero if it has errors)")

let vet_only =
  Arg.(
    value & flag
    & info [ "vet" ]
      ~doc:
        "Only run the static ruleset verifier (soundness, expansion, overlap) \
         on the $(b,--egg) rules file and exit (non-zero if it has errors)")

let no_vet =
  Arg.(
    value & flag
    & info [ "no-vet" ]
      ~doc:
        "Skip the static ruleset verification that normally runs (memoized) \
         before saturation")

let audit_only =
  Arg.(
    value & flag
    & info [ "audit" ]
      ~doc:
        "Only run the cross-layer encoding audit (coverage/arity against the \
         MLIR dialect registry, result sorts, cost totality, effects) on the \
         $(b,--egg) rules file and exit (non-zero if it has errors)")

let no_audit =
  Arg.(
    value & flag
    & info [ "no-audit" ]
      ~doc:
        "Skip the cross-layer encoding audit that normally runs (memoized) \
         before saturation")

let show_stats =
  Arg.(
    value & flag
    & info [ "stats" ]
      ~doc:"Print per-rule saturation statistics (searches, matches, times) to stderr")

let naive_matching =
  Arg.(
    value & flag
    & info [ "naive-matching" ]
      ~doc:"Disable seminaive e-matching: search every due rule against the full e-graph every iteration (same join, same output, slower)")

let no_validate =
  Arg.(
    value & flag
    & info [ "no-validate" ]
      ~doc:
        "Skip translation validation (the post-extraction check that types, \
         shapes and result value ranges still refine the input's)")

let analyze =
  Arg.(
    value & flag
    & info [ "analyze" ]
      ~doc:
        "Print per-value dataflow facts (intervals, known bits, constants, \
         shapes, use counts, dead ops) for each function and exit without \
         optimizing")

let cmd =
  let doc = "dialect-agnostic MLIR optimizer using equality saturation with Egglog" in
  Cmd.v
    (Cmd.info "dialegg-opt" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const run $ input $ egg_file $ output $ iterations $ max_nodes $ timeout
        $ timeout_ms $ max_memory_mb $ on_limit $ inject_fault $ no_dce $ funcs
        $ show_timings $ dump_egg $ lint_only $ vet_only $ no_vet $ audit_only
        $ no_audit $ show_stats $ naive_matching $ no_validate $ analyze))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
