(* mlir-opt: run classical passes (canonicalize, cse, dce, the greedy matmul
   re-association baseline) over an MLIR file and print the result. *)

open Cmdliner

let run input output passes verify_only =
  try
    Serve.Atomic_io.install_signal_cleanup ();
    let m =
      Mlir.Parser.parse_module (In_channel.with_open_bin input In_channel.input_all)
    in
    (match Mlir.Verifier.verify m with
    | [] -> ()
    | errs ->
      Fmt.epr "verification errors:@\n%a@." Egglog.Diag.pp_list errs;
      exit 1);
    if verify_only then (
      print_endline "OK";
      `Ok ())
    else begin
      List.iter
        (fun pass ->
          match pass with
          | "canonicalize" ->
            let s = Mlir.Transforms.canonicalize m in
            Fmt.epr "canonicalize: %d folds, %d cse, %d dce@." s.Mlir.Transforms.folds
              s.Mlir.Transforms.cse_removed s.Mlir.Transforms.dce_removed
          | "cse" -> Fmt.epr "cse: %d removed@." (Mlir.Transforms.cse m)
          | "dce" -> Fmt.epr "dce: %d removed@." (Mlir.Transforms.dce m)
          | "matmul-reassoc" ->
            Fmt.epr "matmul-reassoc: %d rewrites@." (Mlir.Matmul_reassoc.run m)
          | "licm" -> Fmt.epr "licm: %d hoisted@." (Mlir.Licm.run m)
          | p -> failwith ("unknown pass " ^ p))
        passes;
      Mlir.Verifier.verify_exn m;
      let text = Mlir.Printer.module_to_string m in
      (match output with
      | Some path -> Serve.Atomic_io.write_atomic ~path text
      | None -> print_string text);
      `Ok ()
    end
  with
  | Sys_error _ as e when Serve.Cli.is_epipe e -> raise e
  | Sys_error e -> `Error (false, e)
  | Mlir.Parser.Error e -> `Error (false, "parse error: " ^ e)
  | Mlir.Parser.Syntax_error { line; col; msg } ->
    `Error (false, Printf.sprintf "%d:%d: parse error: %s" line col msg)
  | Failure e -> `Error (false, e)

let input =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.mlir" ~doc:"MLIR input file")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT.mlir"
        ~doc:
          "Write the result to $(docv) atomically (same-directory temp file + \
           rename, cleaned up on SIGINT/SIGTERM) instead of stdout")

let passes =
  Arg.(
    value
    & opt_all string [ "canonicalize" ]
    & info [ "pass"; "p" ]
        ~doc:"Pass to run (canonicalize, cse, dce, licm, matmul-reassoc); repeatable, in order")

let verify_only = Arg.(value & flag & info [ "verify" ] ~doc:"Only verify the input")

let cmd =
  let doc = "classical MLIR optimization passes (canonicalization baseline)" in
  Cmd.v
    (Cmd.info "mlir-opt" ~version:"1.0.0" ~doc)
    Term.(ret (const run $ input $ output $ passes $ verify_only))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
