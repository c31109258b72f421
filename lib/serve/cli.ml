(** Shared CLI process hygiene; see the interface for the model. *)

let sigpipe_exit = 128 + 13

exception Usage_error of string

let usage_error fmt = Printf.ksprintf (fun m -> raise (Usage_error m)) fmt

let is_usage_line l = String.starts_with ~prefix:"Usage:" (String.trim l)

(* One diagnostic line, exit 2 — the uniform argument-error contract
   every executable shares (covered by scripts/cli_matrix.sh).  cmdliner
   wraps a long message over several lines before its "Usage:" synopsis;
   they are joined back into one. *)
let usage_exit name msg =
  let rec message = function
    | l :: rest when not (is_usage_line l) -> String.trim l :: message rest
    | _ -> []
  in
  let text = List.filter (( <> ) "") (message (String.split_on_char '\n' msg)) in
  Printf.eprintf "%s Try '%s --help' for more information.\n%!" (String.concat " " text) name;
  2

let eval cmd =
  let name = Cmdliner.Cmd.name cmd in
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let captured () =
    Format.pp_print_flush err ();
    Buffer.contents buf
  in
  (* cmdliner 1.3 splits argument errors across [`Parse] (converter
     failures) and [`Term] (unknown options, missing required
     operands); the latter shares a variant with [Term.ret `Error]
     runtime failures.  Only the argument errors carry a "Usage:"
     synopsis, which is how we tell them apart. *)
  let is_cli_error msg = List.exists is_usage_line (String.split_on_char '\n' msg) in
  match Cmdliner.Cmd.eval_value ~catch:false ~err cmd with
  | Ok (`Ok ()) -> 0
  | Ok (`Version | `Help) -> 0
  | Error `Parse -> usage_exit name (captured ())
  | Error (`Term | `Exn) ->
    let msg = captured () in
    if is_cli_error msg then usage_exit name msg
    else begin
      (* a runtime error: 1, never cmdliner's 124, which is also what
         timeout(1) reports for a hang *)
      prerr_string msg;
      flush stderr;
      1
    end
  | exception Usage_error m ->
    ignore (captured ());
    usage_exit name (Printf.sprintf "%s: %s." name m)

let is_epipe = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | Sys_error m ->
    (* channel writes surface EPIPE as ["...: Broken pipe"] (strerror) *)
    let needle = "Broken pipe" in
    let nl = String.length needle and ml = String.length m in
    let rec scan i =
      i + nl <= ml && (String.sub m i nl = needle || scan (i + 1))
    in
    scan 0
  | _ -> false

(* Point stdout at /dev/null so the exit-time flush of whatever is still
   buffered cannot raise on the dead pipe. *)
let neuter_stdout () =
  try
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stdout;
    Unix.close devnull
  with Unix.Unix_error _ | Sys_error _ -> ()

let main run =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let code =
    match run () with
    | code -> (
      match flush stdout with
      | () -> code
      | exception e when is_epipe e ->
        neuter_stdout ();
        sigpipe_exit)
    | exception e when is_epipe e ->
      neuter_stdout ();
      sigpipe_exit
    | exception e ->
      (* the executables run cmdliner with [~catch:false] so EPIPE can
         reach this guard; play cmdliner's backstop for everything else *)
      Printf.eprintf "internal error: %s\n%s%!" (Printexc.to_string e)
        (Printexc.get_backtrace ());
      125
  in
  Stdlib.exit code
