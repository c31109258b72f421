(* dialegg-reduce: shrink a failing repro while preserving its failure.

   Point it at any INPUT.mlir (+ optional RULES.egg) and either an
   external predicate command (--pred CMD, nonzero exit = "still
   fails") or the built-in oracle battery (optionally --inject-fault,
   --signature to pick the bucket).  Writes PREFIX.mlir/PREFIX.egg. *)

open Cmdliner

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let fault_conv =
  Arg.conv
    ( (fun s ->
        match Dialegg.Faults.parse s with
        | Ok f -> Ok f
        | Error e -> Error (`Msg e)),
      fun ppf f -> Fmt.string ppf (Dialegg.Faults.to_string f) )

(* first function of the module: the entry point for the interpreter
   differential when the caller does not name one *)
let first_func src =
  match Mlir.Parser.parse_module src with
  | exception _ -> None
  | m ->
    List.find_map
      (fun op ->
        if op.Mlir.Ir.op_name = "func.func" then Some (Mlir.Ir.func_name op)
        else None)
      (Mlir.Ir.module_ops m)

let external_pred cmd =
  let mlir_tmp = Filename.temp_file "dialegg-reduce" ".mlir" in
  let egg_tmp = Filename.temp_file "dialegg-reduce" ".egg" in
  at_exit (fun () ->
      (try Sys.remove mlir_tmp with Sys_error _ -> ());
      try Sys.remove egg_tmp with Sys_error _ -> ());
  fun (i : Fuzzing.Reduce.input) ->
    write_file mlir_tmp i.Fuzzing.Reduce.rd_mlir;
    write_file egg_tmp i.Fuzzing.Reduce.rd_egg;
    Sys.command
      (Printf.sprintf "%s %s %s" cmd (Filename.quote mlir_tmp)
         (Filename.quote egg_tmp))
    <> 0

let internal_pred ~inject ~sem_checks ~seed ~func ~signature ~timeout_ms mlir
    egg =
  let func =
    match func with
    | Some f -> f
    | None -> ( match first_func mlir with Some f -> f | None -> "main")
  in
  let case =
    {
      Gen.c_index = 0;
      c_seed = seed;
      c_shape = Gen.Arith;
      c_func = func;
      c_mlir = mlir;
      c_egg = egg;
    }
  in
  let config =
    {
      Fuzzing.Fuzz.fz_timeout_ms = timeout_ms;
      fz_inject = inject;
      fz_sem_checks = sem_checks;
    }
  in
  (* fresh forked subprocess per probe: a hang stays bounded by the
     timeout, and a crash ends the probe instead of the reducer *)
  let battery m e =
    match
      Fuzzing.Fuzz.run_case ~config { case with Gen.c_mlir = m; c_egg = e }
    with
    | Fuzzing.Fuzz.V_pass -> []
    | Fuzzing.Fuzz.V_fail fs -> fs
  in
  let target =
    match signature with
    | Some s -> Ok s
    | None -> (
      (* default bucket: the most informative failure the input shows *)
      match
        battery mlir egg
        |> List.sort (fun a b ->
               compare
                 (Fuzzing.Fuzz.severity_rank b.Fuzzing.Fuzz.f_severity)
                 (Fuzzing.Fuzz.severity_rank a.Fuzzing.Fuzz.f_severity))
      with
      | f :: _ ->
        Fmt.epr "reduce: targeting bucket %s [%s] %s@."
          f.Fuzzing.Fuzz.f_signature
          (Fuzzing.Fuzz.severity_name f.Fuzzing.Fuzz.f_severity)
          f.Fuzzing.Fuzz.f_oracle;
        Ok f.Fuzzing.Fuzz.f_signature
      | [] -> Error "input does not fail any oracle; nothing to reduce")
  in
  match target with
  | Error e -> Error e
  | Ok target ->
    Ok
      ( target,
        fun (i : Fuzzing.Reduce.input) ->
          battery i.Fuzzing.Reduce.rd_mlir i.Fuzzing.Reduce.rd_egg
          |> List.exists (fun f -> f.Fuzzing.Fuzz.f_signature = target) )

let run input egg_file pred_cmd inject signature out_prefix max_rounds seed
    func sem_checks timeout_ms =
  let mlir = In_channel.with_open_bin input In_channel.input_all in
  let egg =
    match egg_file with
    | Some f -> In_channel.with_open_bin f In_channel.input_all
    | None -> ""
  in
  let pred =
    match pred_cmd with
    | Some cmd -> Ok (None, external_pred cmd)
    | None -> (
      match
        internal_pred ~inject ~sem_checks ~seed ~func ~signature ~timeout_ms
          mlir egg
      with
      | Ok (target, p) -> Ok (Some target, p)
      | Error e -> Error e)
  in
  match pred with
  | Error e -> `Error (false, e)
  | Ok (target, pred) ->
    let inp = { Fuzzing.Reduce.rd_mlir = mlir; rd_egg = egg } in
    if not (pred inp) then
      `Error (false, "input does not satisfy the failure predicate")
    else begin
      let reduced = Fuzzing.Reduce.reduce ~max_rounds pred inp in
      let prefix =
        match out_prefix with
        | Some p -> p
        | None -> Filename.remove_extension input ^ ".min"
      in
      write_file (prefix ^ ".mlir") reduced.Fuzzing.Reduce.rd_mlir;
      write_file (prefix ^ ".egg") reduced.Fuzzing.Reduce.rd_egg;
      Fmt.pr "reduce: %d -> %d ops, %d -> %d rule exprs%s@."
        (Fuzzing.Reduce.op_count mlir)
        (Fuzzing.Reduce.op_count reduced.Fuzzing.Reduce.rd_mlir)
        (List.length (Fuzzing.Reduce.split_sexprs egg))
        (List.length (Fuzzing.Reduce.split_sexprs reduced.Fuzzing.Reduce.rd_egg))
        (match target with
        | Some t -> Printf.sprintf " (signature %s preserved)" t
        | None -> "");
      Fmt.pr "reduce: wrote %s.mlir and %s.egg@." prefix prefix;
      `Ok ()
    end

let input =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"INPUT.mlir" ~doc:"The failing module to shrink")

let egg_file =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"RULES.egg"
        ~doc:"Ruleset of the repro (omit for the empty ruleset)")

let pred_cmd =
  Arg.(
    value
    & opt (some string) None
    & info [ "pred" ] ~docv:"CMD"
        ~doc:
          "External failure predicate: $(docv) $(i,MLIR) $(i,EGG) is run per            candidate; a $(b,nonzero) exit means \"still fails\".  Default:            the built-in oracle battery")

let inject_fault =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject-fault" ] ~docv:"STAGE:KIND"
        ~doc:"Arm a deterministic fault in every built-in-oracle pipeline run")

let signature =
  Arg.(
    value
    & opt (some string) None
    & info [ "signature" ] ~docv:"SIG"
        ~doc:
          "Preserve this triage signature (default: the most informative            failure the input exhibits)")

let out_prefix =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"PREFIX"
        ~doc:
          "Write the reduced repro to $(docv).mlir/$(docv).egg (default:            $(i,INPUT) with extension replaced by $(b,.min))")

let max_rounds =
  Arg.(
    value & opt int 4
    & info [ "max-rounds" ] ~docv:"N"
        ~doc:"Bound on functions/ops/rules fixpoint rounds")

let seed =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Seed for the built-in oracle's concrete interpreter arguments")

let func =
  Arg.(
    value
    & opt (some string) None
    & info [ "func" ] ~docv:"NAME"
        ~doc:
          "Entry function for the interpreter differential (default: the            module's first function)")

let sem_checks =
  Arg.(
    value & opt int 2
    & info [ "sem-checks" ] ~docv:"N"
        ~doc:"Concrete argument sets per interpreter-differential check")

let timeout_ms =
  Arg.(
    value & opt int 10_000
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:"Per-probe wall-clock budget for the built-in oracle battery")

let cmd =
  let doc = "ddmin reduction of failing dialegg repros" in
  Cmd.v
    (Cmd.info "dialegg-reduce" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const run $ input $ egg_file $ pred_cmd $ inject_fault $ signature
        $ out_prefix $ max_rounds $ seed $ func $ sem_checks $ timeout_ms))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
