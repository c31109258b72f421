(* dialegg-fuzz: differential fuzzing campaign driver.

   Generates seeded cases (Gen), runs the oracle battery on each in a
   timeout-guarded subprocess (Fuzzing.Fuzz.run_case), buckets failures
   by triage signature into a persisted corpus, and optionally shrinks
   the first repro of each fresh bucket with the ddmin reducer.  Exits
   0 on a clean campaign, 1 when any oracle fired. *)

open Cmdliner

let shape_conv =
  Arg.conv
    ( (fun s ->
        match Gen.shape_of_string s with
        | Some sh -> Ok sh
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown shape %s (expected %s)" s
                  (String.concat ", " (List.map Gen.shape_name Gen.all_shapes)))) ),
      fun ppf sh -> Fmt.string ppf (Gen.shape_name sh) )

let fault_conv =
  Arg.conv
    ( (fun s ->
        match Dialegg.Faults.parse s with
        | Ok f -> Ok f
        | Error e -> Error (`Msg e)),
      fun ppf f -> Fmt.string ppf (Dialegg.Faults.to_string f) )

let severity_tag f = Fuzzing.Fuzz.severity_name f.Fuzzing.Fuzz.f_severity

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let reduce_repro ~config ~quiet case (f : Fuzzing.Fuzz.failure) prefix =
  let target = f.Fuzzing.Fuzz.f_signature in
  (* each candidate probes in a fresh forked subprocess: a hang stays
     bounded by the timeout, and a crash ends the probe instead of the
     campaign *)
  let pred (i : Fuzzing.Reduce.input) =
    let candidate =
      {
        case with
        Gen.c_mlir = i.Fuzzing.Reduce.rd_mlir;
        c_egg = i.Fuzzing.Reduce.rd_egg;
      }
    in
    match Fuzzing.Fuzz.run_case ~config candidate with
    | Fuzzing.Fuzz.V_pass -> false
    | Fuzzing.Fuzz.V_fail fs ->
      List.exists (fun g -> g.Fuzzing.Fuzz.f_signature = target) fs
  in
  let input =
    { Fuzzing.Reduce.rd_mlir = case.Gen.c_mlir; rd_egg = case.Gen.c_egg }
  in
  let reduced = Fuzzing.Reduce.reduce pred input in
  let write path text =
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc
  in
  write (prefix ^ ".min.mlir") reduced.Fuzzing.Reduce.rd_mlir;
  write (prefix ^ ".min.egg") reduced.Fuzzing.Reduce.rd_egg;
  if not quiet then
    Fmt.epr "  reduced %s: %d -> %d ops, %d -> %d rule exprs -> %s.min.*@."
      target
      (Fuzzing.Reduce.op_count case.Gen.c_mlir)
      (Fuzzing.Reduce.op_count reduced.Fuzzing.Reduce.rd_mlir)
      (List.length (Fuzzing.Reduce.split_sexprs case.Gen.c_egg))
      (List.length (Fuzzing.Reduce.split_sexprs reduced.Fuzzing.Reduce.rd_egg))
      prefix

let run runs seed timeout_ms corpus resume do_reduce inject shapes max_bucket
    sem_checks quiet =
  if runs < 0 then Serve.Cli.usage_error "--runs must be non-negative";
  let shapes = match shapes with [] -> Gen.all_shapes | l -> l in
  let config =
    {
      Fuzzing.Fuzz.fz_timeout_ms = timeout_ms;
      fz_inject = inject;
      fz_sem_checks = sem_checks;
    }
  in
  let start = if resume then fst (Fuzzing.Fuzz.load_journal ~corpus) else 0 in
  let failures = ref 0 in
  let buckets : (string, int * Fuzzing.Fuzz.failure) Hashtbl.t =
    Hashtbl.create 16
  in
  (* first persisted repro of each bucket, in discovery order *)
  let repros = ref [] in
  for i = start to start + runs - 1 do
    let case = Gen.case ~shapes ~seed i in
    let fs =
      match Fuzzing.Fuzz.run_case ~config case with
      | Fuzzing.Fuzz.V_pass -> []
      | Fuzzing.Fuzz.V_fail fs -> fs
    in
    List.iter
      (fun (f : Fuzzing.Fuzz.failure) ->
        incr failures;
        let seen =
          match Hashtbl.find_opt buckets f.f_signature with
          | Some (n, _) -> n
          | None -> 0
        in
        Hashtbl.replace buckets f.f_signature (seen + 1, f);
        (match
           Fuzzing.Fuzz.persist_failure ~corpus ~max_per_bucket:max_bucket case
             f
         with
        | Some prefix when seen = 0 -> repros := (case, f, prefix) :: !repros
        | _ -> ());
        if not quiet then
          Fmt.epr "case %06d (%s, seed %d): [%s/%s] %s: %s@." case.Gen.c_index
            (Gen.shape_name case.Gen.c_shape)
            seed f.f_signature (severity_tag f) f.f_oracle
            (first_line f.f_detail))
      fs;
    Fuzzing.Fuzz.append_journal ~corpus case fs
  done;
  let nbuckets = Hashtbl.length buckets in
  Fmt.pr "fuzz: %d cases (seed %d, indices %d..%d), %d failures in %d buckets@."
    runs seed start
    (start + runs - 1)
    !failures nbuckets;
  Hashtbl.fold (fun s nf acc -> (s, nf) :: acc) buckets []
  |> List.sort compare
  |> List.iter (fun (s, (n, f)) ->
         Fmt.pr "  %s x%d [%s] %s@." s n (severity_tag f)
           f.Fuzzing.Fuzz.f_oracle);
  if do_reduce then
    List.iter
      (fun (case, f, prefix) -> reduce_repro ~config ~quiet case f prefix)
      (List.rev !repros);
  if !failures > 0 then begin
    flush stdout;
    flush stderr;
    exit 1
  end;
  ()

let runs =
  Arg.(
    value & opt int 100
    & info [ "runs" ] ~docv:"N" ~doc:"Number of cases to generate and check")

let seed =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Campaign master seed.  Same seed, same $(b,--runs), same shapes =            bit-identical campaign")

let timeout_ms =
  Arg.(
    value & opt int 10_000
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-case wall-clock budget; a case that outlives it is SIGKILLed            and classified as a hang")

let corpus =
  Arg.(
    value & opt string "fuzz-corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Corpus directory: failure buckets under $(docv)/buckets/<sig>/,            one journal line per case in $(docv)/journal.jsonl")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Continue the campaign after the last journaled case index instead            of starting from 0")

let do_reduce =
  Arg.(
    value & flag
    & info [ "reduce" ]
        ~doc:
          "After the campaign, ddmin-shrink the first repro of each fresh            bucket to $(b,<repro>.min.mlir)/$(b,.min.egg)")

let inject_fault =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject-fault" ] ~docv:"STAGE:KIND"
        ~doc:
          "Arm a deterministic fault in every pipeline run — the seeded            regressions the campaign is expected to find            (e.g. $(b,deeggify:alias))")

let shapes =
  Arg.(
    value
    & opt_all shape_conv []
    & info [ "shape" ] ~docv:"SHAPE"
        ~doc:
          "Restrict generation to $(docv) (repeatable): $(b,arith),            $(b,matmul) or $(b,loop).  Default: all")

let max_bucket =
  Arg.(
    value & opt int 5
    & info [ "max-bucket" ] ~docv:"N"
        ~doc:"Keep at most $(docv) repros per triage bucket")

let sem_checks =
  Arg.(
    value & opt int 2
    & info [ "sem-checks" ] ~docv:"N"
        ~doc:
          "Concrete argument sets per interpreter-differential check (0            disables the semantics oracle)")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary")

let cmd =
  let doc = "differential fuzzing of the dialegg pipeline with crash triage" in
  Cmd.v
    (Cmd.info "dialegg-fuzz" ~version:"1.0.0" ~doc)
    Term.(
      const run $ runs $ seed $ timeout_ms $ corpus $ resume $ do_reduce
      $ inject_fault $ shapes $ max_bucket $ sem_checks $ quiet)

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
