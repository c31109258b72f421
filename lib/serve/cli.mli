(** Shared CLI process hygiene.

    Every dialegg executable writes its result to stdout, and stdout is
    routinely a pipe whose reader quits early ([dialegg-opt … | head]).
    With the default disposition the process dies of SIGPIPE — no exit
    code, no cleanup, and under some shells no indication beyond a
    silent kill.  {!main} turns that into a deterministic, clean exit:
    SIGPIPE is ignored, the resulting [EPIPE] errors are caught, stdout
    is redirected to [/dev/null] so the interpreter's exit-time flush
    cannot trip over the dead pipe, and the process exits with
    {!sigpipe_exit} (141 = 128 + SIGPIPE, the code a shell reports for
    a SIGPIPE death — scripted callers see the familiar value, but from
    an orderly exit). *)

(** 141: the conventional "died of SIGPIPE" exit code. *)
val sigpipe_exit : int

(** A command-line usage error detected inside a term (a missing
    operand, mutually exclusive flags, …).  {!eval} turns it into the
    same one-line diagnostic and exit code 2 as a parse error. *)
exception Usage_error of string

(** [usage_error fmt …] raises {!Usage_error} with a formatted message. *)
val usage_error : ('a, unit, string, 'b) format4 -> 'a

(** [eval cmd] evaluates a cmdliner command with uniform error
    handling, the exit contract every executable shares: 0 on success;
    argument parse errors (unknown flag, bad value, missing required
    operand) and {!Usage_error} print a single
    ["name: reason. Try 'name --help' for more information."] line on
    stderr and return 2 — never a backtrace; runtime errors (a term
    returning [`Error]) print their diagnostic and return 1; other
    exceptions propagate to {!main}'s backstop, which exits 125. *)
val eval : unit Cmdliner.Cmd.t -> int

(** Is this exception a broken-pipe error ([Unix.EPIPE], or the
    [Sys_error] OCaml channels raise for one)?  Exposed so executables
    with broad [Sys_error] handlers can re-raise EPIPE into {!main}
    instead of swallowing it. *)
val is_epipe : exn -> bool

(** [main run] ignores SIGPIPE, evaluates [run ()] to an exit code,
    flushes stdout, and exits — mapping any escaped broken-pipe error
    (from [run] or the flush) to {!sigpipe_exit}. *)
val main : (unit -> int) -> unit
