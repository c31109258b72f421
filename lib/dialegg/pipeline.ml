(** The end-to-end DialEgg pipeline (paper Fig. 2):

    {v MLIR --eggify--> Egglog --saturate--> extract --deeggify--> MLIR v}

    Per function: an Egglog engine forked from a base that ran the
    prelude once per process loads the user's declarations/rules and the
    auto-generated [type-of] rules; the function body is translated; the
    rules run to saturation (bounded by iterations / nodes / wall clock);
    the lowest-cost program is extracted and translated back, replacing
    the function body.

    Timings are recorded per phase so the benchmark harness can reproduce
    the paper's Table 2 breakdown. *)

exception Error of string

(** What to do when a function's optimization hits a hard resource limit
    (node / time / memory budget) or a fault:

    - [Fail]: raise {!Error} — strict mode, the whole module aborts;
    - [Best_effort]: keep the best result available — extraction from the
      truncated e-graph after a limit, the last anytime checkpoint after
      an extraction failure, the untouched original after a stage fault —
      and continue with the remaining functions;
    - [Identity]: any hard limit or fault restores the original function
      body verbatim and continues.

    Running out of [max_iterations] is the scheduling bound, not a hard
    limit: it degrades nothing under any policy. *)
type on_limit = Fail | Best_effort | Identity

let on_limits = [ ("fail", Fail); ("best-effort", Best_effort); ("identity", Identity) ]

let on_limit_name p = fst (List.find (fun (_, q) -> q = p) on_limits)

type config = {
  rules : string;  (** Egglog source: user declarations, rules, cost models *)
  schedule : (string option * int) list option;
      (** staged saturation: (ruleset, iteration limit) pairs run in order;
          [None] runs the default ruleset for [max_iterations] *)
  max_iterations : int;
  max_nodes : int;
  timeout : float option;  (** per-function saturation wall-clock budget *)
  run_dce : bool;  (** clean dead ops after de-eggification *)
  verify : bool;  (** verify the rewritten module *)
  validate : bool;
      (** translation validation (see {!Validate}): verify the input,
          snapshot its abstract facts, and after extraction check that
          types, shapes and result intervals still refine them; any
          error-severity diagnostic raises {!Error} *)
  lint : bool;
  vet : bool;
  audit : bool;
      (** which parts of the rules' {!Verdict} to report before
          saturation: errors raise {!Error}, warnings go to stderr *)
  vet_cache_dir : string option;
      (** on-disk verdict cache override (default [$DIALEGG_VET_CACHE]
          or the system temporary directory) *)
  engine : Egglog.Egraph.engine;
      (** e-graph storage engine; [Arena] is the only one (see
          {!Egglog.Egraph.engine}) *)
  jobs : int;
      (** accepted and ignored, like [engine]: saturation runs on one
          domain.  The field stays only so that [perfbench/replica.ml],
          which passes it to {!Egglog.Interp.create}, still builds. *)
  seminaive : bool;
      (** seminaive e-matching: rules scan only rows created since they
          last fired (default); off = every due rule searches the full
          join each iteration — same output, slower *)
  backoff : bool;
  match_limit : int;
  ban_length : int;
      (** [backoff], [match_limit] and [ban_length] are read by nothing,
          like [engine] and [jobs]: saturation applies every match it
          finds.  They stay only so that [perfbench/replica.ml], which
          reads them, still builds. *)
  max_memory_mb : float option;
      (** approximate e-graph memory budget (see {!Egglog.Limits}) *)
  on_limit : on_limit;  (** degradation policy (default [Fail]) *)
  checkpoint_every : int;
      (** anytime-checkpoint cadence in saturation iterations (0 = off;
          only used under non-[Fail] policies) *)
  inject : Faults.t option;
      (** deterministic fault injection at stage boundaries (tests /
          [--inject-fault]); the [DIALEGG_INJECT_FAULT] env var also arms
          one *)
}

let default_config =
  {
    rules = "";
    schedule = None;
    max_iterations = 64;
    max_nodes = 100_000;
    timeout = Some 30.0;
    run_dce = true;
    verify = true;
    validate = true;
    lint = true;
    vet = true;
    audit = true;
    vet_cache_dir = None;
    engine = Egglog.Egraph.Arena;
    jobs = 1;
    seminaive = true;
    backoff = true;
    match_limit = 1000;
    ban_length = 5;
    max_memory_mb = None;
    on_limit = Fail;
    checkpoint_every = 4;
    inject = None;
  }

(* A ruleset is read once per process: the last one read is kept with
   its reading, which serves the static tiers' [Lint.check] and every
   function's set-up.  One entry is enough: a request, a module's
   functions, a serving worker's life each use one ruleset. *)
let last_read : (string * Egglog.Parser.program) option ref = ref None

let n_reads = ref 0

let read_rules src =
  match !last_read with
  | Some (s, program) when s == src || String.equal s src -> program
  | _ ->
    let program = Egglog.Parser.read src in
    incr n_reads;
    last_read := Some (src, program);
    program

let rules_read () = !n_reads

(* Raise {!Error} if any diagnostic is error severity (warnings go to
   stderr), rendering them uniformly with the rule lint. *)
let diags_exn what diags =
  List.iter
    (fun d -> if not (Egglog.Diag.is_error d) then Fmt.epr "%a@." Egglog.Diag.pp d)
    diags;
  if Egglog.Diag.has_errors diags then
    raise
      (Error
         (Fmt.str "%s:@\n%a" what
            (Fmt.list ~sep:Fmt.cut Egglog.Diag.pp)
            (List.filter Egglog.Diag.is_error diags)))

let tier_failure = function
  | Verdict.Lint -> "rules failed lint"
  | Verdict.Vet -> "rules failed vet"
  | Verdict.Audit -> "rules failed encoding audit"

(* The fail-fast static tiers [config] turns on, read from the ruleset's
   one verdict before any saturation runs: lint errors (rules that can
   never fire), vet errors (unsound rules) and audit errors (a broken
   contract between the ruleset, the dialect registry and the cost
   model) raise.  A tier's warnings go to stderr the first time the
   process reads it; a later read only raises its errors again.  The
   ruleset is sort-checked only when its verdict is computed, from the
   process's one reading of it. *)
let static_tiers_exn config =
  let tiers =
    List.filter
      (function Verdict.Lint -> config.lint | Vet -> config.vet | Audit -> config.audit)
      [ Verdict.Lint; Vet; Audit ]
  in
  if tiers = [] || config.rules = "" then (None, None)
  else begin
    let v, read =
      Verdict.read ?cache_dir:config.vet_cache_dir ~file:"<rules>"
        ~checked:(lazy (Lint.check ~file:"<rules>" ~read:(read_rules config.rules) config.rules))
        ~tiers config.rules
    in
    List.iter
      (fun (tier, status) ->
        let diags = Verdict.diags v tier in
        diags_exn (tier_failure tier)
          (if status = Disk_cache.Hit_memory then List.filter Egglog.Diag.is_error diags
           else diags))
      read;
    let part tier report = Option.map (fun status -> (report, status)) (List.assoc_opt tier read) in
    (part Verdict.Vet v.Verdict.vet, part Verdict.Audit v.Verdict.audit)
  end

let vet_rules_exn config = fst (static_tiers_exn { config with lint = false; audit = false })

let audit_rules_exn config = snd (static_tiers_exn { config with lint = false; vet = false })

(* The base engine: the prelude run once per process, its rules compiled,
   with its signatures (paper §5.1) and their generated [type-of] rules,
   prepared and compiled for its forks.  Every function's engine is a
   fork of it.  Nothing writes to it after it is built. *)
type base = {
  b_engine : Egglog.Interp.t;
  b_sigs : Sigs.t;
  b_type_of : Egglog.Interp.prepared_rules;
}

let base =
  lazy
    (let engine = Egglog.Interp.create () in
     Egglog.Interp.run_commands engine (Lazy.force Prelude.commands);
     Egglog.Interp.compile_rules engine;
     let sigs = Sigs.scan (Egglog.Interp.egraph engine) in
     {
       b_engine = engine;
       b_sigs = sigs;
       b_type_of = Egglog.Interp.prepare_rules engine (Sigs.type_of_rules sigs);
     })

let fork_base (config : config) =
  let limits =
    Egglog.Limits.make ~max_nodes:config.max_nodes
      ?max_time_ms:(Option.map (fun s -> s *. 1000.) config.timeout)
      ?max_memory_mb:config.max_memory_mb ()
  in
  let engine = Egglog.Interp.fork ~limits (Lazy.force base).b_engine in
  Egglog.Interp.set_naive_matching engine (not config.seminaive);
  engine

(* A rules file that fails to read or to load, in a declaration, an
   action, a [check] or an [extract], is a [rules:] error. *)
let load_rules (config : config) engine =
  try Egglog.Interp.run_commands engine (Egglog.Parser.commands (read_rules config.rules))
  with
  | Egglog.Parser.Error msg
  | Egglog.Interp.Error msg
  | Egglog.Egraph.Error msg
  | Egglog.Matcher.Error msg
  | Egglog.Extract.Error msg
  ->
    raise (Error ("rules: " ^ msg))

(* The base's signatures and prepared [type-of] rules serve every fork
   whose rules declared no function: its declaration list is then still
   physically the base's. *)
let add_type_of engine =
  let base = Lazy.force base in
  let declared eng = (Egglog.Interp.egraph eng).Egglog.Egraph.funcs_rev in
  if declared engine == declared base.b_engine then begin
    Egglog.Interp.add_prepared engine base.b_type_of;
    base.b_sigs
  end
  else begin
    let sigs = Sigs.scan (Egglog.Interp.egraph engine) in
    Egglog.Interp.run_commands engine (Sigs.type_of_rules sigs);
    sigs
  end

(* The per-function engine set-up (see the interface). *)
let setup_function ?(hooks = Translate.make_hooks ()) (config : config) (func : Mlir.Ir.op) =
  let engine = fork_base config in
  load_rules config engine;
  let sigs = add_type_of engine in
  let eggify = Eggify.create ~engine ~sigs ~hooks in
  let root = Eggify.translate_function eggify func in
  (engine, eggify, sigs, root)

(* Pre-warm a config for a long-lived serving process: run every
   fail-fast static tier once (so their verdicts are memoized and any
   error surfaces immediately, not on the first request), build the base
   engine, and return the config with the per-run tiers disabled.  The
   daemon calls this at startup and on every SIGHUP reload; the batch
   driver uses it so workers inherit pre-vetted rules and the base. *)
let prewarmed (config : config) : config =
  Mlir.Registry.ensure_registered ();
  ignore (static_tiers_exn config);
  ignore (Lazy.force base : base);
  { config with lint = false; vet = false; audit = false }

(** Per-function timing breakdown (Table 2 columns). *)
type timings = {
  t_mlir_to_egg : float;  (** engine set-up: fork, rules load, eggify *)
  t_egglog : float;  (** total time inside the engine: saturation + extraction *)
  t_saturate : float;  (** the saturation part of [t_egglog] *)
  t_search : float;  (** e-matching part of [t_saturate] *)
  t_apply : float;  (** action-application part of [t_saturate] *)
  t_rebuild : float;  (** congruence-rebuild part of [t_saturate] *)
  t_egg_to_mlir : float;  (** de-eggification (+DCE) *)
  iterations : int;
  matches : int;
  stop : Egglog.Interp.stop_reason;
  n_nodes : int;  (** e-graph size after saturation *)
  peak_nodes : int;  (** largest e-graph size seen while saturating *)
  n_classes : int;
  extracted_cost : int;  (** tree cost of the extraction *)
  extracted_dag_cost : int;  (** cost with shared sub-terms counted once *)
  rule_stats : Egglog.Interp.rule_stat list;
      (** per-rule search/apply counts and times ([dialegg-opt --stats]) *)
}

let zero_timings =
  {
    t_mlir_to_egg = 0.;
    t_egglog = 0.;
    t_saturate = 0.;
    t_search = 0.;
    t_apply = 0.;
    t_rebuild = 0.;
    t_egg_to_mlir = 0.;
    iterations = 0;
    matches = 0;
    stop = Egglog.Interp.Saturated;
    n_nodes = 0;
    peak_nodes = 0;
    n_classes = 0;
    extracted_cost = 0;
    extracted_dag_cost = 0;
    rule_stats = [];
  }

(* merge per-rule stats from two runs, by rule name, keeping [a]'s order *)
let merge_rule_stats (a : Egglog.Interp.rule_stat list) (b : Egglog.Interp.rule_stat list) =
  let open Egglog.Interp in
  let merged =
    List.map
      (fun (sa : rule_stat) ->
        match List.find_opt (fun (sb : rule_stat) -> sb.rs_name = sa.rs_name) b with
        | None -> sa
        | Some sb ->
          {
            sa with
            rs_searches = sa.rs_searches + sb.rs_searches;
            rs_matches = sa.rs_matches + sb.rs_matches;
            rs_search_time = sa.rs_search_time +. sb.rs_search_time;
            rs_apply_time = sa.rs_apply_time +. sb.rs_apply_time;
          })
      a
  in
  let extra =
    List.filter
      (fun (sb : rule_stat) ->
        not (List.exists (fun (sa : rule_stat) -> sa.rs_name = sb.rs_name) a))
      b
  in
  merged @ extra

let add_timings a b =
  {
    t_mlir_to_egg = a.t_mlir_to_egg +. b.t_mlir_to_egg;
    t_egglog = a.t_egglog +. b.t_egglog;
    t_saturate = a.t_saturate +. b.t_saturate;
    t_search = a.t_search +. b.t_search;
    t_apply = a.t_apply +. b.t_apply;
    t_rebuild = a.t_rebuild +. b.t_rebuild;
    t_egg_to_mlir = a.t_egg_to_mlir +. b.t_egg_to_mlir;
    iterations = a.iterations + b.iterations;
    matches = a.matches + b.matches;
    stop = (if b.stop = Egglog.Interp.Saturated then a.stop else b.stop);
    n_nodes = a.n_nodes + b.n_nodes;
    peak_nodes = max a.peak_nodes b.peak_nodes;
    n_classes = a.n_classes + b.n_classes;
    extracted_cost = a.extracted_cost + b.extracted_cost;
    extracted_dag_cost = a.extracted_dag_cost + b.extracted_dag_cost;
    rule_stats = merge_rule_stats a.rule_stats b.rule_stats;
  }

let pp_timings ppf t =
  Fmt.pf ppf
    "mlir->egg %.2fms | egglog %.2fms (sat %.2fms = search %.2fms + apply %.2fms + \
     rebuild %.2fms, %d iters, %d matches, %a) | egg->mlir %.2fms | %d nodes %d classes \
     | cost %d (dag %d)"
    (t.t_mlir_to_egg *. 1000.) (t.t_egglog *. 1000.) (t.t_saturate *. 1000.)
    (t.t_search *. 1000.) (t.t_apply *. 1000.) (t.t_rebuild *. 1000.) t.iterations
    t.matches Egglog.Interp.pp_stop_reason t.stop
    (t.t_egg_to_mlir *. 1000.)
    t.n_nodes t.n_classes t.extracted_cost t.extracted_dag_cost

(** Per-rule statistics table ([dialegg-opt --stats]): one row per rule,
    most matches first, ties by rule name — never by time, so the row
    order is the same on every run. *)
let pp_rule_stats ppf (stats : Egglog.Interp.rule_stat list) =
  let open Egglog.Interp in
  let stats =
    List.stable_sort
      (fun a b ->
        match compare b.rs_matches a.rs_matches with
        | 0 -> String.compare a.rs_name b.rs_name
        | c -> c)
      stats
  in
  Fmt.pf ppf "%-40s %9s %9s %11s %11s@." "rule" "searches" "matches" "search(ms)"
    "apply(ms)";
  List.iter
    (fun s ->
      Fmt.pf ppf "%-40s %9d %9d %11.2f %11.2f@." s.rs_name s.rs_searches s.rs_matches
        (s.rs_search_time *. 1000.)
        (s.rs_apply_time *. 1000.))
    stats

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Per-function outcomes and fault isolation                           *)
(* ------------------------------------------------------------------ *)

(** What happened to one function. *)
type outcome =
  | Optimized  (** extraction replaced the body *)
  | Degraded of Faults.stage * Egglog.Diag.t
      (** a stage failed; the original body was kept (identity fallback) *)

type func_report = {
  fr_name : string;
  fr_outcome : outcome;
  fr_stop : Egglog.Interp.stop_reason;  (** why saturation stopped *)
  fr_timings : timings;
}

type report = {
  r_funcs : func_report list;
  r_timings : timings;
  r_vet : (Vet.report * Vet.cache_status) option;
      (** the ruleset's static verification verdict and whether it was
          recomputed or served from the memo ([None] when vetting is off
          or there are no rules) *)
  r_audit : (Audit.report * Audit.cache_status) option;
      (** the encoding audit's verdict and cache provenance ([None] when
          the audit is off or there are no rules) *)
}

let pp_outcome ppf = function
  | Optimized -> Fmt.string ppf "optimized"
  | Degraded (stage, d) ->
    Fmt.pf ppf "degraded at %s (%s)" (Faults.stage_name stage)
      (Egglog.Diag.to_string d)

let pp_report ppf (r : report) =
  (match r.r_vet with
  | Some (v, status) ->
    Fmt.pf ppf "%a [%s]@." Vet.pp_summary v (Disk_cache.status_name status)
  | None -> ());
  (match r.r_audit with
  | Some (a, status) ->
    Fmt.pf ppf "%a [%s]@." Audit.pp_summary a (Disk_cache.status_name status)
  | None -> ());
  List.iter
    (fun fr ->
      Fmt.pf ppf "@%s: %a | stop: %a | %d iters, peak %d nodes@." fr.fr_name
        pp_outcome fr.fr_outcome Egglog.Interp.pp_stop_reason fr.fr_stop
        fr.fr_timings.iterations fr.fr_timings.peak_nodes)
    r.r_funcs

(** Did the module survive without degradations or hard stops? *)
let report_clean (r : report) =
  List.for_all
    (fun fr ->
      (match fr.fr_outcome with Optimized -> true | Degraded _ -> false)
      && match fr.fr_stop with
         | Egglog.Interp.Saturated | Egglog.Interp.Iteration_limit -> true
         | _ -> false)
    r.r_funcs

(* A hard stop is one that lost work: over a resource budget or a captured
   fault.  Running out of max_iterations is the scheduling bound and
   routine. *)
let hard_stop = function
  | Egglog.Interp.Node_limit | Egglog.Interp.Timeout | Egglog.Interp.Memory_limit
  | Egglog.Interp.Fault _ ->
    true
  | Egglog.Interp.Saturated | Egglog.Interp.Iteration_limit -> false

(* internal: a guarded stage failed under a non-strict policy *)
exception Stage_fault of Faults.stage * Egglog.Diag.t

let capturable = function Sys.Break -> false | _ -> true

let fault_diag (stage : Faults.stage) (e : exn) : Egglog.Diag.t =
  let msg =
    match e with
    | Error m -> m
    | Egglog.Interp.Error m -> m
    | Egglog.Egraph.Error m -> "e-graph: " ^ m
    | Egglog.Matcher.Error m -> "match: " ^ m
    | Egglog.Extract.Error m -> "extraction: " ^ m
    | Egglog.Parser.Error m -> "egglog parse: " ^ m
    | Mlir.Parser.Error m -> "mlir parse: " ^ m
    | Mlir.Parser.Syntax_error { line; col; msg } ->
      Printf.sprintf "mlir parse: %d:%d: %s" line col msg
    | Failure m -> m
    | Stack_overflow -> "stack overflow"
    | e -> Printexc.to_string e
  in
  Egglog.Diag.error ("fault-" ^ Faults.stage_name stage) "%s" msg

(* Run one stage.  Strict mode lets exceptions propagate exactly as the
   pre-isolation pipeline did; otherwise any capturable exception becomes a
   [Stage_fault] handled at the function level. *)
let stage ~strict (s : Faults.stage) (inject : Faults.t option) (f : unit -> 'a) : 'a =
  if strict then begin
    Faults.trip inject s;
    f ()
  end
  else
    try
      Faults.trip inject s;
      f ()
    with e when capturable e -> raise (Stage_fault (s, fault_diag s e))

(* Identity fallback: the pipeline rewrites the function in place (the
   de-eggifier clears the body before rebuilding it), so degradation
   restores from a textual snapshot taken before anything was mutated. *)
let snapshot_function (func : Mlir.Ir.op) = Mlir.Printer.op_to_string func

let splice_function (func : Mlir.Ir.op) (src : string) =
  match Mlir.Ir.module_ops (Mlir.Parser.parse_function_module src) with
  | [ fresh ] when fresh.Mlir.Ir.op_name = "func.func" ->
    func.Mlir.Ir.attrs <- fresh.Mlir.Ir.attrs;
    func.Mlir.Ir.regions <- fresh.Mlir.Ir.regions;
    List.iter (fun r -> r.Mlir.Ir.reg_parent <- Some func) fresh.Mlir.Ir.regions
  | _ -> raise (Error "the text to splice is not exactly one func.func")

let restore_function (func : Mlir.Ir.op) (src : string) =
  try splice_function func src
  with e when capturable e ->
    (* a snapshot that fails to re-parse would be a printer bug; leave the
       function as-is rather than crash the fallback path *)
    Fmt.epr "warning: identity fallback failed to restore @%s: %s@."
      (Mlir.Ir.func_name func) (Printexc.to_string e)

(** Optimize one [func.func] op in place and report what happened.  Under
    [config.on_limit = Fail] failures raise {!Error}; under the other
    policies every stage runs inside a fault handler and failures degrade
    to the original function body. *)
let optimize_func_report ?(config = default_config) ?(hooks = Translate.make_hooks ())
    (func : Mlir.Ir.op) : func_report =
  Mlir.Registry.ensure_registered ();
  ignore (static_tiers_exn config);
  let fname = Mlir.Ir.func_name func in
  let strict = config.on_limit = Fail in
  let original = if strict then None else Some (snapshot_function func) in
  let finish ?(outcome = Optimized) ~stop timings =
    { fr_name = fname; fr_outcome = outcome; fr_stop = stop; fr_timings = timings }
  in
  (* what we know if a later stage faults: saturation stats survive *)
  let partial_timings = ref zero_timings in
  let partial_stop = ref None in
  try
    (* verify the *input* before eggify: a malformed function would
       otherwise surface as a confusing mis-translation *)
    if config.validate || config.verify then
      stage ~strict Faults.Validate config.inject (fun () ->
          diags_exn
            (Fmt.str "input function @%s fails verification" fname)
            (Validate.verify_diags ~code:"invalid-input" func));
    (* snapshot the input's signature and abstract facts for the
       post-extraction translation validation *)
    let snapshot = if config.validate then Some (Validate.capture func) else None in
    (* ---- MLIR -> Egglog ---- *)
    (* the base is built once per process and charged to no function *)
    ignore (Lazy.force base : base);
    let t0 = now () in
    let engine, eggify, sigs, root =
      stage ~strict Faults.Eggify config.inject (fun () -> setup_function ~hooks config func)
    in
    let t1 = now () in
    (* anytime checkpoints: track the root's best extraction so a limit or
       fault still yields the best term found so far *)
    if (not strict) && config.checkpoint_every > 0 then
      Egglog.Interp.set_checkpoint_root ~every:config.checkpoint_every engine
        (Egglog.Interp.global engine root);
    (* ---- saturate (possibly a staged schedule of rulesets) ---- *)
    let stats =
      stage ~strict Faults.Saturate config.inject (fun () ->
          match config.schedule with
          | None -> Egglog.Interp.run engine config.max_iterations
          | Some stages ->
            List.fold_left
              (fun (acc : Egglog.Interp.run_stats option) (ruleset, n) ->
                let s = Egglog.Interp.run ?ruleset engine n in
                match acc with
                | None -> Some s
                | Some a ->
                  a.Egglog.Interp.iterations <- a.Egglog.Interp.iterations + s.Egglog.Interp.iterations;
                  a.Egglog.Interp.matches <- a.Egglog.Interp.matches + s.Egglog.Interp.matches;
                  a.Egglog.Interp.sat_time <- a.Egglog.Interp.sat_time +. s.Egglog.Interp.sat_time;
                  a.Egglog.Interp.search_time <- a.Egglog.Interp.search_time +. s.Egglog.Interp.search_time;
                  a.Egglog.Interp.apply_time <- a.Egglog.Interp.apply_time +. s.Egglog.Interp.apply_time;
                  a.Egglog.Interp.rebuild_time <- a.Egglog.Interp.rebuild_time +. s.Egglog.Interp.rebuild_time;
                  a.Egglog.Interp.stop <- s.Egglog.Interp.stop;
                  a.Egglog.Interp.peak_nodes <- max a.Egglog.Interp.peak_nodes s.Egglog.Interp.peak_nodes;
                  Some a)
              None stages
            |> Option.get)
    in
    let stop = stats.Egglog.Interp.stop in
    let sat_timings =
      {
        zero_timings with
        t_mlir_to_egg = t1 -. t0;
        t_saturate = stats.Egglog.Interp.sat_time;
        t_search = stats.Egglog.Interp.search_time;
        t_apply = stats.Egglog.Interp.apply_time;
        t_rebuild = stats.Egglog.Interp.rebuild_time;
        iterations = stats.Egglog.Interp.iterations;
        matches = stats.Egglog.Interp.matches;
        stop;
        peak_nodes = stats.Egglog.Interp.peak_nodes;
        rule_stats = Egglog.Interp.rule_stats engine;
      }
    in
    partial_timings := sat_timings;
    partial_stop := Some stop;
    if hard_stop stop then begin
      (* policy decision point: the run lost work *)
      match config.on_limit with
      | Fail ->
        raise
          (Error
             (Fmt.str "saturation of @%s stopped: %a" fname
                Egglog.Interp.pp_stop_reason stop))
      | Identity ->
        let diag =
          match stop with
          | Egglog.Interp.Fault d -> d
          | _ ->
            Egglog.Diag.error "resource-limit" "saturation of @%s stopped: %a"
              fname Egglog.Interp.pp_stop_reason stop
        in
        raise (Stage_fault (Faults.Saturate, diag))
      | Best_effort -> ()  (* fall through: extract the best we found *)
    end;
    (* ---- extract ---- *)
    let extractor_opt, root_term, extracted_cost, extracted_dag_cost =
      stage ~strict Faults.Extract config.inject (fun () ->
          let direct () =
            Egglog.Egraph.rebuild (Egglog.Interp.egraph engine);
            let extractor = Egglog.Extract.make (Egglog.Interp.egraph engine) in
            let root_class =
              match Egglog.Interp.global engine root with
              | Egglog.Value.Eclass c -> c
              | _ -> raise (Error "root is not an e-class")
            in
            let term = Egglog.Extract.extract_class extractor root_class in
            ( Some extractor,
              term,
              Egglog.Extract.cost_of_class extractor root_class,
              Egglog.Extract.dag_cost extractor term )
          in
          if strict then direct ()
          else
            (* anytime guarantee: if direct extraction fails (e.g. the
               root class lost its finite-cost witness to a fault), the
               last checkpoint still holds the best term found so far *)
            try direct ()
            with e when capturable e -> (
              match Egglog.Interp.best_checkpoint engine with
              | Some ck ->
                Fmt.epr "%a@." Egglog.Diag.pp
                  (Egglog.Diag.warning "anytime-extraction"
                     "@%s: extraction failed (%s); using the iteration-%d checkpoint"
                     fname (Printexc.to_string e) ck.Egglog.Interp.ck_iteration);
                (None, ck.Egglog.Interp.ck_term, ck.Egglog.Interp.ck_cost,
                 ck.Egglog.Interp.ck_cost)
              | None -> raise e))
    in
    let t2 = now () in
    (* ---- Egglog -> MLIR ---- *)
    stage ~strict Faults.Deeggify config.inject (fun () ->
        let extractor =
          match extractor_opt with
          | Some ex -> ex
          | None -> Egglog.Extract.make (Egglog.Interp.egraph engine)
        in
        let deeggify =
          Deeggify.create
            ~unsafe_share_allocs:(Faults.alias_armed config.inject)
            ~sigs ~hooks ~extractor ~eggify ()
        in
        Deeggify.rebuild_function deeggify func root_term;
        if config.run_dce then ignore (Mlir.Transforms.dce func));
    let t3 = now () in
    stage ~strict Faults.Validate config.inject (fun () ->
        match snapshot with
        | Some snap ->
          diags_exn
            (Fmt.str "translation validation failed for @%s" fname)
            (Validate.check snap func)
        | None ->
          if config.verify then
            diags_exn "rewritten function fails verification"
              (Validate.verify_diags ~code:"invalid-extraction" func));
    let eg = Egglog.Interp.egraph engine in
    finish ~stop
      {
        sat_timings with
        t_egglog = t2 -. t1;
        t_egg_to_mlir = t3 -. t2;
        n_nodes = Egglog.Egraph.n_nodes eg;
        n_classes = Egglog.Egraph.n_classes eg;
        extracted_cost;
        extracted_dag_cost;
      }
  with Stage_fault (s, diag) ->
    (* only reachable under non-strict policies: fall back to the original
       function body and report the failure *)
    (match original with
    | Some src -> restore_function func src
    | None -> ());
    let stop =
      match !partial_stop with
      | Some stop when hard_stop stop -> stop  (* e.g. Node_limit under Identity *)
      | _ -> Egglog.Interp.Fault diag
    in
    finish ~outcome:(Degraded (s, diag)) ~stop !partial_timings

(** Optimize every function of a module in place (or only those named in
    [only]), with per-function fault isolation: under non-[Fail] policies
    a failing function degrades to its original body and the remaining
    functions still run. *)
let optimize_module_report ?(config = default_config) ?hooks ?only (m : Mlir.Ir.op) :
    report =
  let vet_result, audit_result = static_tiers_exn config in
  (* the rules were just linted, vetted and audited; don't redo any of
     the static tiers per function *)
  let config = { config with lint = false; vet = false; audit = false } in
  let should name = match only with None -> true | Some names -> List.mem name names in
  let reports =
    List.filter_map
      (fun op ->
        if op.Mlir.Ir.op_name = "func.func" && should (Mlir.Ir.func_name op) then
          Some (optimize_func_report ~config ?hooks op)
        else None)
      (Mlir.Ir.module_ops m)
  in
  {
    r_funcs = reports;
    r_timings =
      List.fold_left (fun acc fr -> add_timings acc fr.fr_timings) zero_timings reports;
    r_vet = vet_result;
    r_audit = audit_result;
  }

(** Optimize every function of a module in place (or only those named in
    [only]).  Returns the summed timings. *)
let optimize_module ?config ?hooks ?only (m : Mlir.Ir.op) : timings =
  (optimize_module_report ?config ?hooks ?only m).r_timings

(* ------------------------------------------------------------------ *)
(* Whole-source entry points                                           *)
(* ------------------------------------------------------------------ *)

(** Optimize MLIR source text end to end: parse, verify the input,
    optimize every function (or only those in [only]), and print.  This
    is the exact sequence the sequential [dialegg-opt] CLI performs, so
    anything that calls it — in particular the batch driver's workers —
    produces byte-identical output to a sequential run under the same
    [config].  Parse failures raise {!Mlir.Parser.Syntax_error}; input
    verification failures raise {!Error}. *)
let optimize_source ?config ?hooks ?only ?file (src : string) : string * report =
  let m = Mlir.Parser.parse_module src in
  (match Validate.verify_diags ?file ~code:"invalid-input" m with
  | [] -> ()
  | diags ->
    raise
      (Error
         (Fmt.str "input module fails verification:@\n%a" Egglog.Diag.pp_list
            diags)));
  let report = optimize_module_report ?config ?hooks ?only m in
  (Mlir.Printer.module_to_string m, report)

(** The identity "optimization": parse [src] and re-print it unchanged.
    This is what a fully-degraded [on_limit = Identity] run produces, and
    what the batch driver falls back to when a job's retry budget is
    exhausted — the output is a valid, normalized module whose semantics
    are the input's. *)
let identity_source (src : string) : string =
  Mlir.Printer.module_to_string (Mlir.Parser.parse_module src)
