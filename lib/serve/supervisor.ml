(** The parent side of the batch driver; see the interface for the
    supervision model. *)

exception Error of string

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Configuration and outcomes                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  pool : int;
  retries : int;
  job_timeout : float;
  grace : float;
  backoff : float;
  pipeline : Dialegg.Pipeline.config;
  faults : Dialegg.Faults.proc_fault list;
  journal_path : string option;
  resume : bool;
  verbose : bool;
}

let default_config =
  {
    pool = 4;
    retries = 2;
    job_timeout = 60.;
    grace = 1.;
    backoff = 0.05;
    pipeline = Dialegg.Pipeline.default_config;
    faults = [];
    journal_path = None;
    resume = false;
    verbose = false;
  }

type job_outcome =
  | J_optimized of { degraded : int }
  | J_identity of Pool.fail_class
  | J_failed of string
  | J_resumed of Queue.outcome

type job_result = {
  jr_job : Queue.job;
  jr_outcome : job_outcome;
  jr_attempts : int;
  jr_output : string option;
}

type batch_report = { br_results : job_result list }

let report_ok r =
  List.for_all
    (fun jr -> match jr.jr_outcome with J_failed _ -> false | _ -> true)
    r.br_results

let counts r =
  List.fold_left
    (fun (o, i, f, s) jr ->
      match jr.jr_outcome with
      | J_optimized _ -> (o + 1, i, f, s)
      | J_identity _ -> (o, i + 1, f, s)
      | J_failed _ -> (o, i, f + 1, s)
      | J_resumed _ -> (o, i, f, s + 1))
    (0, 0, 0, 0) r.br_results

let pp_outcome ppf = function
  | J_optimized { degraded = 0 } -> Fmt.string ppf "optimized"
  | J_optimized { degraded = n } ->
    Fmt.pf ppf "optimized (%d function(s) degraded in-worker)" n
  | J_identity cls -> Fmt.pf ppf "identity fallback (%a)" Pool.pp_fail_class cls
  | J_failed m -> Fmt.pf ppf "FAILED: %s" m
  | J_resumed o -> Fmt.pf ppf "resumed (%s)" (Queue.outcome_name o)

let pp_report ppf r =
  List.iter
    (fun jr ->
      Fmt.pf ppf "%s: %a, %d attempt(s)@." jr.jr_job.Queue.job_id pp_outcome
        jr.jr_outcome jr.jr_attempts)
    r.br_results;
  let o, i, f, s = counts r in
  Fmt.pf ppf "%d job(s): %d optimized, %d identity-fallback, %d failed, %d resumed@."
    (List.length r.br_results) o i f s

(* ------------------------------------------------------------------ *)
(* Batch state                                                         *)
(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  total : int;
  mutable pending : (float * int * Queue.job) list; (* ready, attempt, job *)
  results : (string, job_result) Hashtbl.t;
  journal : Queue.journal option;
}

let say st s = if st.cfg.verbose then Fmt.epr "[dialegg-batch] %s@." s
let verbose st fmt = Fmt.kstr (say st) fmt

let insert_pending st ((r, _, _) as item) =
  let rec ins = function
    | [] -> [ item ]
    | ((r', _, _) as hd) :: tl -> if r < r' then item :: hd :: tl else hd :: ins tl
  in
  st.pending <- ins st.pending

(* ------------------------------------------------------------------ *)
(* Job completion paths                                                *)
(* ------------------------------------------------------------------ *)

let record st (job : Queue.job) ~attempts ~outcome ~output ~bytes =
  (match st.journal with
  | Some j ->
    let joutcome =
      match outcome with
      | J_optimized _ -> Queue.O_optimized
      | J_identity _ -> Queue.O_identity
      | J_failed _ -> Queue.O_failed
      | J_resumed o -> o
    in
    Queue.log_done j ~id:job.Queue.job_id ~outcome:joutcome ~attempts ~bytes
  | None -> ());
  Hashtbl.replace st.results job.Queue.job_id
    { jr_job = job; jr_outcome = outcome; jr_attempts = attempts; jr_output = output }

let complete_ok st (job : Queue.job) ~attempts ~degraded text =
  verbose st "%s: optimized on attempt %d" job.Queue.job_id attempts;
  let output =
    match job.Queue.job_out with
    | Some path ->
      Atomic_io.write_atomic ~path text;
      None
    | None -> Some text
  in
  record st job ~attempts ~outcome:(J_optimized { degraded }) ~output
    ~bytes:(String.length text)

(* Retries exhausted: degrade to the identity output — the job's input,
   parsed and re-printed, exactly what a fully-degraded [--on-limit
   identity] run yields.  In module mode leaving the function untouched
   IS the identity, so there is nothing to produce. *)
let fallback_identity st (job : Queue.job) ~attempts cls =
  match
    match job.Queue.job_input with
    | Protocol.J_file path ->
      Some
        (Dialegg.Pipeline.identity_source
           (In_channel.with_open_bin path In_channel.input_all))
    | Protocol.J_func _ | Protocol.J_text _ -> None
  with
  | output ->
    let bytes =
      match (output, job.Queue.job_out) with
      | Some text, Some path ->
        Atomic_io.write_atomic ~path text;
        String.length text
      | Some text, None -> String.length text
      | None, _ -> 0
    in
    verbose st "%s: identity fallback after %d attempt(s)" job.Queue.job_id attempts;
    record st job ~attempts ~outcome:(J_identity cls) ~output:None ~bytes
  | exception e ->
    let msg =
      Fmt.str "%a; identity fallback also failed: %s" Pool.pp_fail_class cls
        (Printexc.to_string e)
    in
    record st job ~attempts ~outcome:(J_failed msg) ~output:None ~bytes:0

let job_failed st ((job : Queue.job), attempt) cls =
  verbose st "%s: attempt %d failed (%a)" job.Queue.job_id (attempt + 1)
    Pool.pp_fail_class cls;
  if attempt < st.cfg.retries then begin
    let delay = st.cfg.backoff *. (2. ** float_of_int attempt) in
    insert_pending st (now () +. delay, attempt + 1, job)
  end
  else fallback_identity st job ~attempts:(attempt + 1) cls

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let incomplete st = Hashtbl.length st.results < st.total

(* Hand every ready attempt to an idle worker; an attempt whose write
   failed was not the job's fault and goes back as it was. *)
let dispatch st pool =
  let rec go () =
    match st.pending with
    | (ready, attempt, job) :: rest when ready <= now () && Pool.idle pool ->
      st.pending <- rest;
      (match st.journal with
      | Some j -> Queue.log_start j ~id:job.Queue.job_id ~attempt
      | None -> ());
      let rq =
        {
          Protocol.rq_id = job.Queue.job_id;
          rq_input = job.Queue.job_input;
          rq_attempt = attempt;
          rq_config = st.cfg.pipeline;
          rq_fault =
            Dialegg.Faults.proc_matches st.cfg.faults ~job:job.Queue.job_id
              ~attempt;
        }
      in
      if not (Pool.dispatch pool (job, attempt) rq) then
        insert_pending st (now (), attempt, job);
      go ()
    | _ -> ()
  in
  go ()

let on_event st = function
  | Pool.Done ((job, attempt), text, degraded) ->
    complete_ok st job ~attempts:(attempt + 1) ~degraded text
  | Pool.Failed (attempt, cls) -> job_failed st attempt cls

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) (jobs : Queue.job list) : batch_report =
  if jobs = [] then raise (Error "empty batch: no jobs to run");
  let ids = Hashtbl.create 16 in
  List.iter
    (fun (j : Queue.job) ->
      if Hashtbl.mem ids j.Queue.job_id then
        raise (Error ("duplicate job id " ^ j.Queue.job_id));
      Hashtbl.add ids j.Queue.job_id ())
    jobs;
  (* the static tiers run here, once, before any fork or output: rules
     that fail one fail the batch, and every worker inherits the verdicts
     and the base engine *)
  let config =
    { config with pipeline = Dialegg.Pipeline.prewarmed config.pipeline }
  in
  (* a worker dying mid-write must not kill the supervisor *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Atomic_io.install_signal_cleanup ();
  let journal, completed =
    match config.journal_path with
    | Some path ->
      let j, c = Queue.journal_open ~path ~resume:config.resume in
      (Some j, c)
    | None -> (None, [])
  in
  let st =
    {
      cfg = config;
      total = List.length jobs;
      pending = [];
      results = Hashtbl.create 16;
      journal;
    }
  in
  (* replay: a journaled outcome whose output is still on disk is
     final — skip the job without recomputing (or re-journaling) it *)
  let todo =
    List.filter
      (fun (job : Queue.job) ->
        match
          List.find_opt
            (fun (e : Queue.entry) -> e.Queue.e_id = job.Queue.job_id)
            completed
        with
        | Some e
          when e.Queue.e_outcome <> Queue.O_failed
               && (match job.Queue.job_out with
                  | Some p -> Sys.file_exists p
                  | None -> true) ->
          Hashtbl.replace st.results job.Queue.job_id
            {
              jr_job = job;
              jr_outcome = J_resumed e.Queue.e_outcome;
              jr_attempts = e.Queue.e_attempts;
              jr_output = None;
            };
          false
        | _ -> true)
      jobs
  in
  (* no worker forks before the first dispatch *)
  let pool =
    Pool.create ~log:(say st) ~entry:Worker.main
      {
        Pool.default_config with
        size = min config.pool (List.length todo);
        job_timeout = config.job_timeout;
        grace = config.grace;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      match st.journal with Some j -> Queue.journal_close j | None -> ())
    (fun () ->
      let t0 = now () in
      st.pending <- List.map (fun j -> (t0, 0, j)) todo;
      (try
         while incomplete st do
           dispatch st pool;
           (* a ready attempt waits for a worker, not for a time *)
           let until =
             match st.pending with
             | (r, _, _) :: _ when r > now () -> Some r
             | _ -> None
           in
           List.iter (on_event st) (snd (Pool.wait pool ?until ()))
         done
       with Pool.Crash_loop ->
         raise (Error "worker pool is crash-looping; aborting the batch"));
      { br_results = List.map (fun (j : Queue.job) -> Hashtbl.find st.results j.Queue.job_id) jobs })

(* ------------------------------------------------------------------ *)
(* Module-mode reassembly                                              *)
(* ------------------------------------------------------------------ *)

let splice_results (m : Mlir.Ir.op) (r : batch_report) =
  List.iter
    (fun jr ->
      match (jr.jr_job.Queue.job_input, jr.jr_output) with
      | Protocol.J_func { func; _ }, Some text -> (
        match
          List.find_opt
            (fun op ->
              op.Mlir.Ir.op_name = "func.func" && Mlir.Ir.func_name op = func)
            (Mlir.Ir.module_ops m)
        with
        | Some op -> Dialegg.Pipeline.splice_function op text
        | None -> ())
      | _ -> () (* identity / failed / file-mode: leave the module alone *))
    r.br_results
