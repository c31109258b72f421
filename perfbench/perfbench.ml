(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Workloads: paper-suite, nmm-chains, gen-corpus, serve-warm, serve-mixed
   (see README.md).  With --trace 0 the run measures the end-to-end metrics
   for S seconds; with --trace 1 it runs a fixed amount of traced work
   and reports the per-layer metrics.  The last line of stdout is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
   code is 0 only when every output matched its reference.

   serve-warm and serve-mixed re-execute this program as
   [perfbench --serve-daemon DIR] to start each daemon as a fresh
   process.

   Everything the run writes goes to a private directory under
   .perfbench-tmp/ in the current directory, which is deleted at exit. *)

open Common

let workloads = [ "paper-suite"; "nmm-chains"; "gen-corpus"; "serve-warm"; "serve-mixed" ]

let usage () =
  Printf.eprintf
    "usage: perfbench --workload (%s) --seed N --seconds S --trace 0|1\n"
    (String.concat "|" workloads);
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun s -> s > 0.) (float_of_string_opt s) ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some n, Some s, Some t -> (w, n, s, t)
  | _ -> usage ()

(* A private directory per run: the serving workloads' daemon socket and
   caches, temporary files and the compiler's stderr.  An empty
   [DIALEGG_VET_CACHE] turns the vet/audit disk cache off wherever a
   config names no directory of its own: the in-process workloads run
   without it, and the serving workloads give theirs a private one. *)
let make_run_dir workload =
  let root = Filename.concat (Sys.getcwd ()) ".perfbench-tmp" in
  (try Unix.mkdir root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let me = Unix.getpid () in
  let dir = fresh_dir root (Printf.sprintf "%s-%d" workload me) in
  at_exit (fun () ->
      (* forked children inherit this hook; only the harness cleans up *)
      if Unix.getpid () = me then begin
        rm_rf dir;
        try Unix.rmdir root with Unix.Unix_error _ -> ()
      end);
  Filename.set_temp_dir_name dir;
  Unix.putenv "TMPDIR" dir;
  Unix.putenv "DIALEGG_VET_CACHE" "";
  Unix.putenv Dialegg.Faults.env_var "";
  dir

let redirect_stderr run_dir =
  let saved = Unix.dup ~cloexec:true Unix.stderr in
  let log =
    Unix.openfile (Filename.concat run_dir "compiler-stderr.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o600
  in
  Unix.dup2 ~cloexec:false log Unix.stderr;
  Unix.close log;
  report := Unix.out_channel_of_descr saved

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--serve-daemon"; dir ] ->
    (* the serving workloads start their daemons through this mode *)
    Served.daemon_main dir;
    exit 0
  | _ -> ());
  let workload, seed, seconds, trace = parse_args () in
  let run_dir = make_run_dir workload in
  (* registered after the run directory's hook, so it runs first *)
  let me = Unix.getpid () in
  at_exit (fun () ->
      if Unix.getpid () = me then begin
        stop_child ();
        Served.stop_all ()
      end);
  redirect_stderr run_dir;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  let inproc w =
    if trace then Inproc.traced w ~seed else Inproc.timed w ~seed ~seconds
  in
  match
    match workload with
    | "paper-suite" -> inproc Inproc.Paper_suite
    | "nmm-chains" -> inproc Inproc.Nmm_chains
    | "gen-corpus" -> inproc Inproc.Gen_corpus
    | w ->
      let kind = if w = "serve-warm" then Served.Warm else Served.Mixed in
      if trace then Served.traced kind ~seed ~run_dir else Served.timed kind ~seed ~seconds ~run_dir
  with
  | exception e ->
    say "perfbench: %s: %s\n" workload (Printexc.to_string e);
    exit 1
  | o ->
    List.iter (fun p -> say "MISMATCH: %s\n" p) o.problems;
    let finite = List.for_all (fun m -> Float.is_finite m.m_value) o.metrics in
    if not finite then say "perfbench: a metric is not a finite number\n";
    let o = { o with correct = o.correct && finite } in
    print_endline (result_line o);
    exit (if o.correct then 0 else 1)
