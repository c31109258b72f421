(* Process plumbing shared by the workloads: the clock, the private run
   directory, forked children, /proc readings and the result line. *)

(* Every timing in the harness comes from the engine's monotonic clock. *)
let now_ms = Egglog.Limits.now_ms

(* The harness's own diagnostics.  File descriptor 2 is redirected to a
   log file in the run directory, because the compiler writes a warning
   for every ruleset it vets; this channel is the original stderr. *)
let report = ref stderr

let say fmt = Printf.ksprintf (fun s -> output_string !report s; flush !report) fmt

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* An empty directory [parent/name], replacing anything already there. *)
let fresh_dir parent name =
  let d = Filename.concat parent name in
  rm_rf d;
  Unix.mkdir d 0o700;
  d

let count_files dir = try Array.length (Sys.readdir dir) with Sys_error _ -> 0

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* Peak resident set size of [pid] in MB (VmHWM), 0 if it is gone. *)
let vmhwm_mb pid =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match Scanf.sscanf v " %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception _ -> acc)
      | _ -> acc)
    0.
    (read_lines (Printf.sprintf "/proc/%d/status" pid))

let children_of pid =
  List.concat_map
    (fun l -> List.filter_map int_of_string_opt (String.split_on_char ' ' l))
    (read_lines (Printf.sprintf "/proc/%d/task/%d/children" pid pid))

(* ------------------------------------------------------------------ *)
(* Forked children                                                     *)
(* ------------------------------------------------------------------ *)

(* Run [f] in a forked child and return its result.  The child starts
   from the parent's exact state, so a pass that must see cold caches,
   or must repeat another pass's work exactly, runs in one.  OCaml 5
   forbids fork once a domain has been spawned; the harness never
   spawns one (every config it builds has [jobs = 1]). *)
let child = ref None (* the child [in_child] is waiting for *)

let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let result : ('a, string) result =
      match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc result [];
    close_out oc;
    (* skip at_exit: the run directory belongs to the parent *)
    Unix._exit 0
  | pid -> (
    child := Some pid;
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result : ('a, string) result =
      match Marshal.from_channel ic with
      | v -> v
      | exception End_of_file -> Error "child exited without a result"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    child := None;
    match result with Ok v -> v | Error m -> failwith ("child: " ^ m))

(* End the child [in_child] is waiting for, if any: a run stopped by a
   signal must not leave it behind. *)
let stop_child () =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !child;
  child := None

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type outcome = {
  correct : bool;  (** every output matched its reference *)
  attempted : int;  (** requests sent in the measured part of the run *)
  failed : int;  (** of those, raised / degraded / hard stop / mismatch / shed / error *)
  metrics : metric list;
  problems : string list;  (** why [correct] is false, for the log *)
}

let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line: the last line of stdout. *)
let result_line o =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value)
          m.m_unit)
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " metrics)
