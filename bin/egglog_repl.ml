(* egglog: run Egglog programs from files or an interactive REPL.

   A standalone front-end to the equality-saturation engine, independent of
   MLIR — useful for experimenting with rule sets before wiring them into
   DialEgg, and for running the paper's listings directly:

     dune exec bin/egglog_repl.exe -- rules/prelude.egg myprog.egg
     dune exec bin/egglog_repl.exe            # interactive *)

open Cmdliner

let print_outputs outs =
  List.iter
    (fun o ->
      match o with
      | Egglog.Interp.O_extracted (term, cost) ->
        Printf.printf "%s  ; cost %d\n%!" (Egglog.Extract.term_to_string term) cost
      | Egglog.Interp.O_variants vs ->
        List.iteri
          (fun i (term, cost) ->
            Printf.printf "; variant %d (cost %d):\n%s\n%!" i cost
              (Egglog.Extract.term_to_string term))
          vs
      | Egglog.Interp.O_ran s ->
        Printf.printf "; ran %d iterations, %d matches (%s, %.2f ms)\n%!"
          s.Egglog.Interp.iterations s.Egglog.Interp.matches
          (Fmt.str "%a" Egglog.Interp.pp_stop_reason s.Egglog.Interp.stop)
          (s.Egglog.Interp.sat_time *. 1000.)
      | Egglog.Interp.O_checked -> Printf.printf "; check passed\n%!"
      | Egglog.Interp.O_msg m -> print_string m)
    outs

(* Render a runtime failure as a diagnostic; never lets the session die.
   [Sys.Break] (ctrl-C) is the one exception that must keep propagating. *)
let runtime_diag e =
  let msg =
    match e with
    | Egglog.Parser.Error e -> "parse: " ^ e
    | Egglog.Interp.Error e -> e
    | Egglog.Egraph.Error e -> "e-graph: " ^ e
    | Egglog.Matcher.Error e -> "match: " ^ e
    | Egglog.Primitives.Error e -> "primitive: " ^ e
    | Egglog.Extract.Error e -> "extraction: " ^ e
    | Failure e -> e
    | Stack_overflow -> "stack overflow"
    | e -> Printexc.to_string e
  in
  Egglog.Diag.error "runtime" "%s" msg

(* Execute one chunk of source: sort-check first (located diagnostics),
   run only when the check is clean, and convert any runtime exception to
   a diagnostic.  Returns [false] if anything was reported as an error. *)
let run_chunk ?file engine check_env src =
  (* diagnose against a scratch copy so a rejected chunk leaves no
     half-recorded declarations behind *)
  let scratch = Egglog.Check.copy_env check_env in
  let diags = Egglog.Check.check_program ?file ~env:scratch src in
  List.iter (fun d -> Fmt.epr "%a@." Egglog.Diag.pp d) diags;
  if Egglog.Diag.has_errors diags then false
  else begin
    ignore (Egglog.Check.check_program ?file ~env:check_env src);
    match Egglog.Interp.run_string engine src with
    | () -> true
    | exception Sys.Break -> raise Sys.Break
    | exception e ->
      Fmt.epr "%a@." Egglog.Diag.pp (runtime_diag e);
      false
  end

(* Returns whether every chunk was clean.  Interactively the prompt makes
   errors visible as they happen; when stdin is a pipe the session is a
   script, so the caller must fold the result into the exit code for
   failures to be detectable at all. *)
let repl engine check_env =
  let interactive = Unix.isatty Unix.stdin in
  if interactive then Printf.printf "egglog repl — enter commands, :q to quit\n%!";
  let buf = Buffer.create 256 in
  let depth s =
    String.fold_left
      (fun d c -> if c = '(' then d + 1 else if c = ')' then d - 1 else d)
      0 s
  in
  let rec loop ok pending_depth =
    if interactive then print_string (if pending_depth > 0 then "... " else ">>> ");
    match read_line () with
    | exception End_of_file -> ok
    | ":q" | ":quit" -> ok
    | line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      let d = pending_depth + depth line in
      if d > 0 then loop ok d
      else begin
        let src = Buffer.contents buf in
        Buffer.clear buf;
        let before = List.length (Egglog.Interp.outputs engine) in
        let chunk_ok = run_chunk engine check_env src in
        let outs = Egglog.Interp.outputs engine in
        print_outputs (List.filteri (fun i _ -> i >= before) outs);
        loop (ok && chunk_ok) 0
      end
  in
  let ok = loop true 0 in
  (* an interactive session already showed its errors; only a piped one
     turns them into a non-zero exit *)
  interactive || ok

let run files max_nodes timeout stats =
  let engine = Egglog.Interp.create ~max_nodes ~timeout () in
  let check_env = Egglog.Check.create_env () in
  try
    (* file mode: an error in one file is reported (located) and does not
       stop the remaining files from running; the exit code records it *)
    let ok =
      List.fold_left
        (fun ok f ->
          run_chunk ~file:f engine check_env (In_channel.with_open_bin f In_channel.input_all)
          && ok)
        true files
    in
    print_outputs (Egglog.Interp.outputs engine);
    if stats then Fmt.epr "%a@." Egglog.Egraph.pp_stats (Egglog.Interp.egraph engine);
    let ok = if files = [] then repl engine check_env && ok else ok in
    if ok then `Ok () else `Error (false, "errors were reported")
  with
  | Sys_error _ as e when Serve.Cli.is_epipe e -> raise e
  | Sys_error e -> `Error (false, e)

let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE.egg")

let max_nodes =
  Arg.(value & opt int 500_000 & info [ "max-nodes" ] ~doc:"E-graph node budget")

let timeout =
  Arg.(value & opt float 60.0 & info [ "timeout" ] ~doc:"Saturation wall-clock budget (s)")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print e-graph statistics at the end")

let cmd =
  let doc = "equality saturation engine (Egglog-subset interpreter)" in
  Cmd.v
    (Cmd.info "egglog" ~version:"1.0.0" ~doc)
    Term.(ret (const run $ files $ max_nodes $ timeout $ stats))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
