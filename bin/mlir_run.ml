(* mlir-run: interpret a function from an MLIR file on simple scalar
   arguments and print its results, the executed cycle cost proxy and the
   wall-clock time.  Tensor-typed arguments are zero-initialized (use the
   benchmark harness for real workloads). *)

open Cmdliner

let parse_arg (ty : Mlir.Typ.t) (s : string) : Mlir.Interp.rv =
  match ty with
  | Mlir.Typ.Integer w -> Mlir.Interp.Ri (Int64.of_string s, w)
  | Mlir.Typ.Index -> Mlir.Interp.Ri (Int64.of_string s, 64)
  | Mlir.Typ.Float k -> Mlir.Interp.Rf (float_of_string s, k)
  | t -> failwith (Fmt.str "cannot parse a %a argument from the command line" Mlir.Typ.pp t)

let default_arg (ty : Mlir.Typ.t) : Mlir.Interp.rv =
  match ty with
  | Mlir.Typ.Integer w -> Mlir.Interp.Ri (0L, w)
  | Mlir.Typ.Index -> Mlir.Interp.Ri (0L, 64)
  | Mlir.Typ.Float k -> Mlir.Interp.Rf (0.0, k)
  | Mlir.Typ.Ranked_tensor _ as t -> Mlir.Interp.Rt (Mlir.Interp.alloc_tensor t)
  | t -> failwith (Fmt.str "cannot build a default %a argument" Mlir.Typ.pp t)

let run input func args =
  try
    let m =
      Mlir.Parser.parse_module (In_channel.with_open_bin input In_channel.input_all)
    in
    Mlir.Verifier.verify_exn m;
    let f =
      match Mlir.Ir.find_function m func with
      | Some f -> f
      | None -> failwith ("no function @" ^ func)
    in
    let arg_types, _ = Mlir.Ir.func_type f in
    let rvs =
      List.mapi
        (fun i ty ->
          match List.nth_opt args i with
          | Some s -> parse_arg ty s
          | None -> default_arg ty)
        arg_types
    in
    let r = Mlir.Interp.run m func rvs in
    List.iter (fun v -> Fmt.pr "%a@." Mlir.Interp.pp_rv v) r.Mlir.Interp.values;
    Fmt.epr "cycles: %d, wall: %.6fs@." r.Mlir.Interp.cycles r.Mlir.Interp.wall_time;
    `Ok ()
  with
  | Sys_error _ as e when Serve.Cli.is_epipe e -> raise e
  | Sys_error e -> `Error (false, e)
  | Mlir.Parser.Error e -> `Error (false, "parse error: " ^ e)
  | Mlir.Parser.Syntax_error { line; col; msg } ->
    `Error (false, Printf.sprintf "%d:%d: parse error: %s" line col msg)
  | Mlir.Interp.Runtime_error e -> `Error (false, "runtime error: " ^ e)
  | Failure e -> `Error (false, e)

let input =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.mlir" ~doc:"MLIR input file")

let func =
  Arg.(value & opt string "main" & info [ "function"; "f" ] ~doc:"Function to execute")

let args =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS" ~doc:"Scalar arguments")

let cmd =
  let doc = "interpret an MLIR function and report the cycle cost proxy" in
  Cmd.v (Cmd.info "mlir-run" ~version:"1.0.0" ~doc) Term.(ret (const run $ input $ func $ args))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
