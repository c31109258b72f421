(* The traced run's compiler: a replica of the strict path of
   [Dialegg.Pipeline.optimize_source] that makes the same public calls in
   the same order, each wrapped in a span that records wall time and
   minor-heap words.  Spans sit in this file, around the calls into each
   layer; the library is not instrumented.  Callers compare the
   replica's output with [optimize_source] on every input, so a replica
   that drifts from the pipeline fails loudly. *)

module P = Dialegg.Pipeline

let layers =
  [|
    "mlir.parser";
    "dialegg.validate";
    "dialegg.lint";
    "dialegg.vet";
    "dialegg.audit";
    "dialegg.prelude";
    "egglog.interp.load_rules";
    "dialegg.sigs";
    "dialegg.eggify";
    "egglog.interp.run";
    "egglog.extract";
    "dialegg.deeggify";
    "mlir.printer";
  |]

let l_parser = 0
and l_validate = 1
and l_lint = 2
and l_vet = 3
and l_audit = 4
and l_prelude = 5
and l_load_rules = 6
and l_sigs = 7
and l_eggify = 8
and l_run = 9
and l_extract = 10
and l_deeggify = 11
and l_printer = 12

(* Exact work counts, summed over a request's functions (peak nodes: the
   maximum). *)
let counts =
  [|
    "egglog.interp.run.iterations";
    "egglog.interp.run.matches";
    "egglog.egraph.peak_nodes";
    "egglog.egraph.n_classes";
    "dialegg.sigs.type_of_rules";
    "egglog.extract.tree_cost";
    "egglog.extract.dag_cost";
    "vet_calls";
    "vet_hits";
    "audit_calls";
    "audit_hits";
  |]

let c_iterations = 0
and c_matches = 1
and c_peak_nodes = 2
and c_n_classes = 3
and c_type_of_rules = 4
and c_tree_cost = 5
and c_dag_cost = 6
and c_vet_calls = 7
and c_vet_hits = 8
and c_audit_calls = 9
and c_audit_hits = 10

(* The saturation phase split that [Interp.run] reports. *)
let phases = [| "egglog.interp.run.search_ms"; "egglog.interp.run.apply_ms"; "egglog.interp.run.rebuild_ms" |]

(* One traced request. *)
type request = {
  r_ms : float array;  (** per layer *)
  r_words : float array;  (** per layer, minor-heap words *)
  r_phase_ms : float array;
  r_counts : int array;
  r_total_ms : float;  (** the whole traced request *)
}

(* Warnings to stderr, errors raised: the pipeline's handling. *)
let diags_exn what diags =
  List.iter
    (fun d -> if not (Egglog.Diag.is_error d) then Fmt.epr "%a@." Egglog.Diag.pp d)
    diags;
  if Egglog.Diag.has_errors diags then
    raise
      (P.Error
         (Fmt.str "%s:@\n%a" what
            (Fmt.list ~sep:Fmt.cut Egglog.Diag.pp)
            (List.filter Egglog.Diag.is_error diags)))

let hard_stop = function
  | Egglog.Interp.Node_limit | Egglog.Interp.Timeout | Egglog.Interp.Memory_limit
  | Egglog.Interp.Fault _ ->
    true
  | Egglog.Interp.Saturated | Egglog.Interp.Iteration_limit -> false

(* [optimize_source config src] = [P.optimize_source ~config src] for a
   strict config with the default schedule, plus its trace. *)
let optimize_source (config : P.config) (src : string) : string * request =
  if config.P.on_limit <> P.Fail || config.P.schedule <> None then
    invalid_arg "Replica.optimize_source: strict, unscheduled configs only";
  let ms = Array.make (Array.length layers) 0. in
  let words = Array.make (Array.length layers) 0. in
  let phase_ms = Array.make (Array.length phases) 0. in
  let c = Array.make (Array.length counts) 0 in
  let span l f =
    let w0 = Gc.minor_words () in
    let t0 = Common.now_ms () in
    let r = f () in
    let t1 = Common.now_ms () in
    let w1 = Gc.minor_words () in
    ms.(l) <- ms.(l) +. (t1 -. t0);
    words.(l) <- words.(l) +. (w1 -. w0);
    r
  in
  let inject = config.P.inject in
  let optimize_func func =
    Mlir.Registry.ensure_registered ();
    let hooks = Dialegg.Translate.make_hooks () in
    let fname = Mlir.Ir.func_name func in
    if config.P.validate || config.P.verify then
      span l_validate (fun () ->
          Dialegg.Faults.trip inject Dialegg.Faults.Validate;
          diags_exn
            (Fmt.str "input function @%s fails verification" fname)
            (Dialegg.Validate.verify_diags ~code:"invalid-input" func));
    let snapshot =
      if config.P.validate then Some (span l_validate (fun () -> Dialegg.Validate.capture func))
      else None
    in
    Dialegg.Faults.trip inject Dialegg.Faults.Eggify;
    let engine =
      span l_prelude (fun () ->
          let limits =
            Egglog.Limits.make ~max_nodes:config.P.max_nodes
              ?max_time_ms:(Option.map (fun s -> s *. 1000.) config.P.timeout)
              ?max_memory_mb:config.P.max_memory_mb ()
          in
          let engine =
            Egglog.Interp.create ~limits ~engine:config.P.engine ~jobs:config.P.jobs ()
          in
          Egglog.Interp.set_naive_matching engine (not config.P.seminaive);
          Egglog.Interp.set_backoff engine config.P.backoff;
          Egglog.Interp.set_match_limit engine config.P.match_limit;
          Egglog.Interp.set_ban_length engine config.P.ban_length;
          Egglog.Interp.run_commands engine (Lazy.force Dialegg.Prelude.commands);
          engine)
    in
    span l_load_rules (fun () ->
        try Egglog.Interp.run_string engine config.P.rules
        with Egglog.Parser.Error msg -> raise (P.Error ("rules: " ^ msg)));
    let sigs =
      span l_sigs (fun () ->
          let sigs = Dialegg.Sigs.scan (Egglog.Interp.egraph engine) in
          let type_of = Dialegg.Sigs.type_of_rules sigs in
          c.(c_type_of_rules) <- c.(c_type_of_rules) + List.length type_of;
          Egglog.Interp.run_commands engine type_of;
          sigs)
    in
    let eggify, root =
      span l_eggify (fun () ->
          let eggify = Dialegg.Eggify.create ~engine ~sigs ~hooks in
          (eggify, Dialegg.Eggify.translate_function eggify func))
    in
    Dialegg.Faults.trip inject Dialegg.Faults.Saturate;
    let stats =
      span l_run (fun () ->
          let stats = Egglog.Interp.run engine config.P.max_iterations in
          ignore (Egglog.Interp.rule_stats engine : Egglog.Interp.rule_stat list);
          stats)
    in
    c.(c_iterations) <- c.(c_iterations) + stats.Egglog.Interp.iterations;
    c.(c_matches) <- c.(c_matches) + stats.Egglog.Interp.matches;
    c.(c_peak_nodes) <- max c.(c_peak_nodes) stats.Egglog.Interp.peak_nodes;
    phase_ms.(0) <- phase_ms.(0) +. (stats.Egglog.Interp.search_time *. 1000.);
    phase_ms.(1) <- phase_ms.(1) +. (stats.Egglog.Interp.apply_time *. 1000.);
    phase_ms.(2) <- phase_ms.(2) +. (stats.Egglog.Interp.rebuild_time *. 1000.);
    if hard_stop stats.Egglog.Interp.stop then
      raise
        (P.Error
           (Fmt.str "saturation of @%s stopped: %a" fname Egglog.Interp.pp_stop_reason
              stats.Egglog.Interp.stop));
    Dialegg.Faults.trip inject Dialegg.Faults.Extract;
    let extractor, term =
      span l_extract (fun () ->
          let eg = Egglog.Interp.egraph engine in
          Egglog.Egraph.rebuild eg;
          let extractor = Egglog.Extract.make eg in
          let root_class =
            match Egglog.Interp.global engine root with
            | Egglog.Value.Eclass c -> c
            | _ -> raise (P.Error "root is not an e-class")
          in
          let term = Egglog.Extract.extract_class extractor root_class in
          c.(c_tree_cost) <- c.(c_tree_cost) + Egglog.Extract.cost_of_class extractor root_class;
          c.(c_dag_cost) <- c.(c_dag_cost) + Egglog.Extract.dag_cost extractor term;
          (extractor, term))
    in
    Dialegg.Faults.trip inject Dialegg.Faults.Deeggify;
    span l_deeggify (fun () ->
        let deeggify =
          Dialegg.Deeggify.create
            ~unsafe_share_allocs:(Dialegg.Faults.alias_armed inject)
            ~sigs ~hooks ~extractor ~eggify ()
        in
        Dialegg.Deeggify.rebuild_function deeggify func term;
        if config.P.run_dce then ignore (Mlir.Transforms.dce func : int));
    span l_validate (fun () ->
        Dialegg.Faults.trip inject Dialegg.Faults.Validate;
        match snapshot with
        | Some snap ->
          diags_exn
            (Fmt.str "translation validation failed for @%s" fname)
            (Dialegg.Validate.check snap func)
        | None ->
          if config.P.verify then
            diags_exn "rewritten function fails verification"
              (Dialegg.Validate.verify_diags ~code:"invalid-extraction" func));
    let eg = Egglog.Interp.egraph engine in
    ignore (Egglog.Egraph.n_nodes eg : int);
    c.(c_n_classes) <- c.(c_n_classes) + Egglog.Egraph.n_classes eg
  in
  let t0 = Common.now_ms () in
  let m = span l_parser (fun () -> Mlir.Parser.parse_module src) in
  span l_validate (fun () ->
      match Dialegg.Validate.verify_diags ~code:"invalid-input" m with
      | [] -> ()
      | diags ->
        raise
          (P.Error
             (Fmt.str "input module fails verification:@\n%a" Egglog.Diag.pp_list diags)));
  let rules = config.P.rules in
  if config.P.lint && rules <> "" then
    span l_lint (fun () -> diags_exn "rules failed lint" (Dialegg.Lint.lint_rules ~file:"<rules>" rules));
  (* the pipeline's own tiers: each returns [None] when it is off or
     there are no rules, else the verdict and where it came from *)
  let tally calls hits = function
    | None -> ()
    | Some hit ->
      c.(calls) <- c.(calls) + 1;
      if hit then c.(hits) <- c.(hits) + 1
  in
  tally c_vet_calls c_vet_hits
    (span l_vet (fun () ->
         Option.map (fun (_, st) -> st <> Dialegg.Vet.Computed) (P.vet_rules_exn config)));
  tally c_audit_calls c_audit_hits
    (span l_audit (fun () ->
         Option.map (fun (_, st) -> st <> Dialegg.Audit.Computed) (P.audit_rules_exn config)));
  List.iter
    (fun op -> if op.Mlir.Ir.op_name = "func.func" then optimize_func op)
    (Mlir.Ir.module_ops m);
  let out = span l_printer (fun () -> Mlir.Printer.module_to_string m) in
  ( out,
    {
      r_ms = ms;
      r_words = words;
      r_phase_ms = phase_ms;
      r_counts = c;
      r_total_ms = Common.now_ms () -. t0;
    } )

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* Where two traced passes over the same inputs disagree on a count, or
   on a layer's minor words by more than [word_slack]. *)
let word_slack = 64.

let compare_passes (a : request list) (b : request list) : string list =
  if List.length a <> List.length b then [ "traced passes differ in length" ]
  else
    List.concat
      (List.mapi
         (fun i (x, y) ->
           let count_diffs =
             List.filter_map
               (fun k ->
                 if x.r_counts.(k) <> y.r_counts.(k) then
                   Some
                     (Printf.sprintf "request %d: %s %d vs %d" i counts.(k) x.r_counts.(k)
                        y.r_counts.(k))
                 else None)
               (List.init (Array.length counts) Fun.id)
           in
           let word_diffs =
             List.filter_map
               (fun l ->
                 if Float.abs (x.r_words.(l) -. y.r_words.(l)) > word_slack then
                   Some
                     (Printf.sprintf "request %d: %s minor words %.0f vs %.0f" i layers.(l)
                        x.r_words.(l) y.r_words.(l))
                 else None)
               (List.init (Array.length layers) Fun.id)
           in
           count_diffs @ word_diffs)
         (List.combine a b))

let ratio hits calls = if calls = 0 then 0. else float_of_int hits /. float_of_int calls

(* The per-layer metrics of a set of traced requests: per-request means,
   and each layer's share of the traced request time. *)
let metrics (rs : request list) : Common.metric list =
  let n = float_of_int (max 1 (List.length rs)) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
  let isum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let total = sum (fun r -> r.r_total_ms) in
  let per_layer =
    List.concat
      (List.init (Array.length layers) (fun l ->
           let ms = sum (fun r -> r.r_ms.(l)) in
           [
             Common.metric (layers.(l) ^ ".ms") "ms" (ms /. n);
             Common.metric (layers.(l) ^ ".share") "fraction"
               (if total > 0. then ms /. total else 0.);
             Common.metric (layers.(l) ^ ".kwords") "kwords"
               (sum (fun r -> r.r_words.(l)) /. n /. 1000.);
           ]))
  in
  let phase =
    List.init (Array.length phases) (fun k ->
        Common.metric phases.(k) "ms" (sum (fun r -> r.r_phase_ms.(k)) /. n))
  in
  let exact =
    List.init (c_dag_cost + 1) Fun.id
    |> List.map (fun k ->
           Common.metric counts.(k) "count" (float_of_int (isum (fun r -> r.r_counts.(k))) /. n))
  in
  let vet =
    ratio (isum (fun r -> r.r_counts.(c_vet_hits))) (isum (fun r -> r.r_counts.(c_vet_calls)))
  in
  let audit =
    ratio
      (isum (fun r -> r.r_counts.(c_audit_hits)))
      (isum (fun r -> r.r_counts.(c_audit_calls)))
  in
  per_layer @ phase @ exact
  @ [
      Common.metric "dialegg.vet.hit_ratio" "fraction" vet;
      Common.metric "dialegg.audit.hit_ratio" "fraction" audit;
    ]
