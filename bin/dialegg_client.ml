(* dialegg-client: submit an MLIR module to a running dialegg-serve daemon
   and print the optimized result.  Warm-cache replies are byte-identical
   to a cold dialegg-opt run under the daemon's configuration. *)

open Cmdliner

let run socket input output deadline_ms retries stats_only do_ping show_stats =
  try
    Serve.Client.with_connection socket (fun c ->
        if do_ping then
          if Serve.Client.ping c then begin
            Fmt.epr "daemon on %s is alive@." socket;
            `Ok ()
          end
          else `Error (false, "daemon did not answer the ping")
        else if stats_only then begin
          Fmt.pr "%a@." Serve.Protocol.pp_daemon_stats (Serve.Client.stats c);
          `Ok ()
        end
        else
          match input with
          | None -> raise (Serve.Cli.Usage_error "required argument INPUT.mlir is missing")
          | Some path ->
            let src = In_channel.with_open_bin path In_channel.input_all in
            let reply = Serve.Client.optimize ?deadline_ms ~retries c src in
            (match output with
            | Some out ->
              Serve.Atomic_io.write_atomic ~path:out
                reply.Serve.Protocol.sv_output
            | None -> print_string reply.Serve.Protocol.sv_output);
            if show_stats then begin
              Fmt.epr "latency: %.2f ms, %d function(s) degraded@."
                (reply.Serve.Protocol.sv_latency_s *. 1000.)
                reply.Serve.Protocol.sv_degraded;
              List.iter
                (fun (name, mark) ->
                  Fmt.epr "  @%s: %s@." name
                    (Serve.Protocol.cache_mark_name mark))
                reply.Serve.Protocol.sv_marks
            end;
            `Ok ())
  with
  | Serve.Client.Error e -> `Error (false, e)
  | Sys_error _ as e when Serve.Cli.is_epipe e -> raise e
  | Sys_error e -> `Error (false, e)

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket")

let input =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"INPUT.mlir" ~doc:"MLIR input file")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT.mlir"
        ~doc:"Write the optimized module to $(docv) atomically instead of stdout")

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Client deadline: the daemon tightens per-function budgets to \
           answer within $(docv) milliseconds")

let retries =
  Arg.(
    value & opt int 3
    & info [ "retries" ]
        ~doc:"How many overloaded (load-shed) replies to retry before giving up")

let stats_only =
  Arg.(value & flag & info [ "stats-only" ] ~doc:"Print the daemon's counters and exit")

let do_ping =
  Arg.(value & flag & info [ "ping" ] ~doc:"Probe daemon liveness and exit")

let show_stats =
  Arg.(
    value & flag
    & info [ "stats" ]
      ~doc:"After optimizing, print latency and per-function cache provenance \
            (hit-memory|hit-disk|miss) to stderr")

let cmd =
  let doc = "client for the dialegg-serve optimization daemon" in
  Cmd.v
    (Cmd.info "dialegg-client" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const run $ socket $ input $ output $ deadline_ms $ retries
        $ stats_only $ do_ping $ show_stats))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
