(** The child side of the batch driver; see the interface for the model. *)

(* Enact a process-level injected fault.  Each arm reproduces one way a
   real worker dies: [W_hang] ignores SIGTERM so only the supervisor's
   SIGKILL escalation reclaims the slot; [W_segv] aborts via a fatal
   signal, bypassing [Stdlib.exit] and every [at_exit] hook; [W_garbage]
   corrupts the protocol stream and exits "successfully"; [W_oom] is
   killed with no warning, exactly like the kernel OOM killer. *)
let enact_fault out_fd (k : Dialegg.Faults.proc_kind) =
  match k with
  | Dialegg.Faults.W_hang ->
    Sys.set_signal Sys.sigterm Sys.Signal_ignore;
    while true do
      Unix.sleep 3600
    done
  | Dialegg.Faults.W_segv -> Unix.kill (Unix.getpid ()) Sys.sigabrt
  | Dialegg.Faults.W_garbage ->
    Atomic_io.write_all out_fd "!! this is not a dialegg protocol frame !!";
    Stdlib.exit 0
  | Dialegg.Faults.W_oom -> Unix.kill (Unix.getpid ()) Sys.sigkill

let describe_exn = function
  | Dialegg.Pipeline.Error m -> "pipeline: " ^ m
  | Egglog.Interp.Error m -> "egglog: " ^ m
  | Egglog.Parser.Error m -> "egglog parse: " ^ m
  | Mlir.Parser.Error m -> "mlir parse: " ^ m
  | Mlir.Parser.Syntax_error { line; col; msg } ->
    Printf.sprintf "mlir parse: %d:%d: %s" line col msg
  | Mlir.Typ.Parse_error m -> "type parse: " ^ m
  | Sys_error m -> m
  | Failure m -> m
  | Stack_overflow -> "stack overflow"
  | e -> Printexc.to_string e

let count_degraded (r : Dialegg.Pipeline.report) =
  List.length
    (List.filter
       (fun fr ->
         match fr.Dialegg.Pipeline.fr_outcome with
         | Dialegg.Pipeline.Degraded _ -> true
         | Dialegg.Pipeline.Optimized -> false)
       r.Dialegg.Pipeline.r_funcs)

let process (rq : Protocol.request) : Protocol.response =
  let respond result degraded =
    { Protocol.rs_id = rq.rq_id; rs_result = result; rs_degraded = degraded }
  in
  let optimize_one_func ~func src =
    let m = Mlir.Parser.parse_module src in
    match
      List.find_opt
        (fun op ->
          op.Mlir.Ir.op_name = "func.func" && Mlir.Ir.func_name op = func)
        (Mlir.Ir.module_ops m)
    with
    | None -> failwith (Printf.sprintf "no function @%s in the input" func)
    | Some op ->
      let fr = Dialegg.Pipeline.optimize_func_report ~config:rq.rq_config op in
      let degraded =
        match fr.Dialegg.Pipeline.fr_outcome with
        | Dialegg.Pipeline.Degraded _ -> 1
        | Dialegg.Pipeline.Optimized -> 0
      in
      (Mlir.Printer.op_to_string op, degraded)
  in
  match
    match rq.rq_input with
    | Protocol.J_file path ->
      (* the exact sequential dialegg-opt sequence, so batch outputs are
         byte-identical to one-process runs *)
      let out, report =
        Dialegg.Pipeline.optimize_source ~config:rq.rq_config ~file:path
          (In_channel.with_open_bin path In_channel.input_all)
      in
      (out, count_degraded report)
    | Protocol.J_func { path; func } ->
      optimize_one_func ~func (In_channel.with_open_bin path In_channel.input_all)
    | Protocol.J_text { name; src } ->
      (* the daemon path: the single-function module arrives by value, so
         a serving worker never reads the filesystem *)
      optimize_one_func ~func:name src
  with
  | out, degraded -> respond (Ok out) degraded
  | exception Sys.Break -> raise Sys.Break
  | exception e -> respond (Error (describe_exn e)) 0

let main ~in_fd ~out_fd =
  (* undo anything the supervisor installed before forking: the watchdog's
     SIGTERM must kill us, and a write after the supervisor dies should
     too (default SIGPIPE) *)
  List.iter
    (fun s ->
      try Sys.set_signal s Sys.Signal_default
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm; Sys.sigpipe ];
  let r = Protocol.reader in_fd in
  let rec loop () =
    match Protocol.read_blocking r with
    | Protocol.Eof -> Stdlib.exit 0 (* supervisor closed the queue: done *)
    | Protocol.Garbage _ -> Stdlib.exit 3
    | Protocol.Incomplete -> loop () (* read_blocking never returns this *)
    | Protocol.Msg Protocol.M_ping ->
      (* liveness probe from the daemon's heartbeat loop *)
      Protocol.write_message out_fd Protocol.M_pong;
      loop ()
    | Protocol.Msg
        ( Protocol.M_response _ | Protocol.M_pong | Protocol.C_optimize _
        | Protocol.C_reply _ | Protocol.C_error _ | Protocol.C_overloaded _
        | Protocol.C_stats_request | Protocol.C_stats _ ) ->
      Stdlib.exit 3
    | Protocol.Msg (Protocol.M_request rq) ->
      (match rq.Protocol.rq_fault with
      | Some k -> enact_fault out_fd k
      | None -> ());
      let resp = process rq in
      Protocol.write_message out_fd (Protocol.M_response resp);
      loop ()
  in
  loop ()
