(* The in-process workloads: paper-suite, nmm-chains and gen-corpus.
   One caller compiles in a closed loop through
   [Dialegg.Pipeline.optimize_source], the sequence dialegg-opt runs. *)

module P = Dialegg.Pipeline
open Common

type program = {
  name : string;  (** latencies aggregate per name *)
  src : string;
  rules : string;
  oracle : string -> (float option, string) result;
      (** run the optimized text in [Mlir.Interp] against a reference that
          does not come from the compiler; [Ok (Some s)]: correct, with
          cost-proxy speedup [s] over the input; [Ok None]: input and
          output trap identically *)
}

(* No [vet_cache_dir]: with [DIALEGG_VET_CACHE] empty (see perfbench.ml)
   the vet and audit verdicts are memoized in the process only.  A
   commit to the disk cache fsyncs twice, and the host's fsync latency
   wanders with other tenants' I/O by more than the benchmark's bounds
   (README, "Steadiness"). *)
let config rules = { P.default_config with P.rules }

(* One request.  A request fails if it raised, degraded or stopped on a
   hard limit. *)
let compile cfg src : (string, string) result =
  match P.optimize_source ~config:cfg src with
  | out, report ->
    if P.report_clean report then Ok out else Error "degraded or stopped on a hard limit"
  | exception e -> Error (Printexc.to_string e)

let interp m func args =
  match Mlir.Interp.run ~fuel:50_000_000 m func args with
  | r -> Ok r
  | exception Mlir.Interp.Runtime_error e -> Error e

let speedup (r_in : Mlir.Interp.result) (r_out : Mlir.Interp.result) =
  float_of_int (max 1 r_in.Mlir.Interp.cycles) /. float_of_int (max 1 r_out.Mlir.Interp.cycles)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* The paper's five programs at Table 2's compile scale, each with its
   shipped ruleset; the seed picks the interpreter's input data. *)
let paper_suite ~seed =
  List.map
    (fun (b : Workloads.Benchmark.t) ->
      let matmul = b.name = "2MM" || b.name = "3MM" in
      let scale = if matmul then b.default_scale else max 2 (b.default_scale / 100) in
      let src = b.source ~scale in
      let run text = interp (Mlir.Parser.parse_module text) b.main_func (b.make_input ~scale ~seed) in
      let oracle out =
        match (run src, run out) with
        | Ok r_in, Ok r_out -> (
          match b.check ~scale ~input:(b.make_input ~scale ~seed) ~output:r_out.Mlir.Interp.values with
          | Ok () -> Ok (Some (speedup r_in r_out))
          | Error e -> Error (b.name ^ ": " ^ e))
        | Error e, _ | _, Error e -> Error (b.name ^ ": interpreter: " ^ e)
      in
      { name = b.name; src; rules = b.rules; oracle })
    Workloads.Suite.all

(* The oracle of a matmul chain [@func] over [dims] inside module [src]:
   interpret it on seeded matrices and compare with the OCaml chain
   product. *)
let chain_oracle ~seed ~func dims src out =
  let dims = Array.of_list dims in
  let mats () =
    let rng = Workloads.Rng.create ((seed * 31) + Array.length dims) in
    List.init (Array.length dims - 1) (fun i ->
        let r = dims.(i) and c = dims.(i + 1) in
        (r, c, Array.init (r * c) (fun _ -> Workloads.Rng.float_range rng (-1.0) 1.0)))
  in
  let run text =
    interp (Mlir.Parser.parse_module text) func
      (List.map (fun (r, c, a) -> Workloads.Benchmark.float_tensor [ r; c ] a) (mats ()))
  in
  match (run src, run out) with
  | Ok r_in, Ok r_out -> (
    match r_out.Mlir.Interp.values with
    | [ v ] -> (
      match
        Workloads.Benchmark.check_floats ~tol:1e-6 ~abs_floor:1e-6
          (Workloads.Matmul_chain.reference (mats ()))
          (Workloads.Benchmark.as_float_data v)
      with
      | Ok () -> Ok (Some (speedup r_in r_out))
      | Error e -> Error (Printf.sprintf "@%s: %s" func e))
    | _ -> Error (Printf.sprintf "@%s: unexpected result arity" func))
  | Error e, _ | _, Error e -> Error (Printf.sprintf "@%s: interpreter: %s" func e)

(* Chains whose dimensions are all distinct.  Equal dimensions give
   distinct sub-chains the same tensor type, so their tensor.empty
   destinations share an e-class and the e-graph shrinks by however many
   coincidences the seed happened to draw; with distinct dimensions the
   work depends on the length alone. *)
let distinct_dims ~n ~seed =
  let rec draw k =
    let dims = Workloads.Matmul_chain.dims_for ~n ~seed:(seed + (k * 1_000_003)) in
    if List.length (List.sort_uniq compare dims) = List.length dims then dims else draw (k + 1)
  in
  draw 0

let chain_lengths = List.init 7 (fun i -> 10 + i)
let chains_per_length = 32

(* linalg.matmul chains of 10 to 16 matmuls under matmul associativity,
   [chains_per_length] of each length with seeded dimensions, ordered so
   that consecutive programs cycle through the lengths.  Chains of one
   length do the same work, so their latencies aggregate under one name;
   several per length average the seed out of the speedup.
   [dims_for] seeds its generator with [seed + n], so each chain's seed
   is a hash of (run seed, length, variant): chains, and runs with nearby
   seeds, must not share a stream. *)
let nmm_chains ~seed =
  List.concat
    (List.init chains_per_length (fun v ->
         List.map
           (fun n ->
             let dims = distinct_dims ~n ~seed:(Hashtbl.hash (seed, n, v)) in
             let src = Workloads.Matmul_chain.source_chain dims in
             {
               name = Printf.sprintf "%dMM" n;
               src;
               rules = Dialegg.Rules.matmul_assoc;
               oracle = chain_oracle ~seed ~func:"mm_chain" dims src;
             })
           chain_lengths))

let close_float x y =
  x = y
  || (Float.is_nan x && Float.is_nan y)
  || Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))

let rv_close (a : Mlir.Interp.rv) (b : Mlir.Interp.rv) =
  match (a, b) with
  | Mlir.Interp.Ri (x, w), Mlir.Interp.Ri (y, w') -> w = w' && Int64.equal x y
  | Mlir.Interp.Rf (x, _), Mlir.Interp.Rf (y, _) -> close_float x y
  | Mlir.Interp.Rt t1, Mlir.Interp.Rt t2 -> (
    t1.Mlir.Interp.shape = t2.Mlir.Interp.shape
    &&
    match (t1.Mlir.Interp.data, t2.Mlir.Interp.data) with
    | Mlir.Interp.Df a1, Mlir.Interp.Df a2 -> Array.for_all2 close_float a1 a2
    | Mlir.Interp.Di a1, Mlir.Interp.Di a2 -> Array.for_all2 Int64.equal a1 a2
    | _ -> false)
  | Mlir.Interp.Runit, Mlir.Interp.Runit -> true
  | _ -> false

(* Generated cases, each under its own mutated ruleset; the reference is
   the interpreted unoptimized input.  Latencies aggregate per shape. *)
let gen_case ~seed (c : Gen.case) =
  let oracle out =
    let m_in = Mlir.Parser.parse_module c.Gen.c_mlir in
    let run m = interp m c.Gen.c_func (Gen.random_args ~seed m_in c.Gen.c_func) in
    let label = Printf.sprintf "case %d (%s)" c.Gen.c_index (Gen.shape_name c.Gen.c_shape) in
    match (run m_in, run (Mlir.Parser.parse_module out)) with
    | Ok r_in, Ok r_out ->
      let vs_in = r_in.Mlir.Interp.values and vs_out = r_out.Mlir.Interp.values in
      if List.length vs_in = List.length vs_out && List.for_all2 rv_close vs_in vs_out then
        Ok (Some (speedup r_in r_out))
      else Error (label ^ ": optimized output computes a different result")
    | Error e_in, Error e_out when e_in = e_out -> Ok None
    | Error e, _ | _, Error e -> Error (label ^ ": interpreter: " ^ e)
  in
  { name = Gen.shape_name c.Gen.c_shape; src = c.Gen.c_mlir; rules = c.Gen.c_egg; oracle }

(* Cases per gen-corpus pass: a third of each shape, so a seed can change
   the cases but not the mix. *)
let gen_cases = 810

let gen_corpus ~seed =
  let shapes = Array.of_list Gen.all_shapes in
  List.init gen_cases (fun i ->
      gen_case ~seed (Gen.case ~shapes:[ shapes.(i mod Array.length shapes) ] ~seed i))

(* Warm-up cases for gen-corpus: another stream, minus any whose ruleset
   a measured case uses, so the measured cases stay cold. *)
let gen_warmup ~seed (measured : program list) =
  let used = Hashtbl.create 512 in
  List.iter (fun p -> Hashtbl.replace used p.rules ()) measured;
  List.filter
    (fun p -> not (Hashtbl.mem used p.rules))
    (List.init 24 (fun i -> gen_case ~seed (Gen.case ~seed:(seed + 7_777_777) i)))

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type workload = Paper_suite | Nmm_chains | Gen_corpus

(* The untimed prologue: generate and parse the inputs, then compile one
   program per distinct ruleset, which runs the static tiers on the empty
   memo and parses the prelude.  gen-corpus warms up on cases outside
   the measured set, whose static tiers must stay cold.  Returns the
   programs and the outputs of those compiled. *)
let inputs w ~seed =
  Array.of_list
    (match w with
    | Paper_suite -> paper_suite ~seed
    | Nmm_chains -> nmm_chains ~seed
    | Gen_corpus -> gen_corpus ~seed)

let setup w ~seed =
  Mlir.Registry.ensure_registered ();
  let programs = inputs w ~seed in
  Array.iter (fun p -> ignore (Mlir.Parser.parse_module p.src : Mlir.Ir.op)) programs;
  let compile_p p = compile (config p.rules) p.src in
  match w with
  | Gen_corpus ->
    List.iter (fun p -> ignore (compile_p p)) (gen_warmup ~seed (Array.to_list programs));
    (programs, Array.map (fun _ -> None) programs)
  | Paper_suite | Nmm_chains ->
    let seen = Hashtbl.create 8 in
    ( programs,
      Array.map
        (fun p ->
          if Hashtbl.mem seen p.rules then None
          else begin
            Hashtbl.replace seen p.rules ();
            Some (compile_p p)
          end)
        programs )

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* Run every program's oracle on its output; the speedups' geomean. *)
let check_outputs programs (outs : (string, string) result array) =
  let problems = ref [] and speedups = ref [] in
  Array.iteri
    (fun i (p : program) ->
      match outs.(i) with
      | Error e -> problems := Printf.sprintf "%s: %s" p.name e :: !problems
      | Ok out -> (
        match p.oracle out with
        | Ok (Some s) -> speedups := s :: !speedups
        | Ok None -> ()
        | Error e -> problems := e :: !problems))
    programs;
  (List.rev !problems, Stats.geomean !speedups)

let values_of name samples = List.filter_map (fun (m, v) -> if m = name then Some v else None) samples
let names_of samples = List.sort_uniq compare (List.map fst samples)

(* Per-name latency quantile, then the geomean over names. *)
let aggregate q (samples : (string * float) list) =
  Stats.geomean (List.map (fun n -> Stats.quantile q (values_of n samples)) (names_of samples))

(* The median latency of each name in each slice, the mean over the
   slices, then the geomean over names.  The host's speed moves between a
   fast and a slow state within seconds; the mean over slices moves in
   proportion to the time spent in each, where a pooled median jumps from
   one state to the other once either holds half the samples. *)
let sliced_median (slices : (string * float) list list) =
  Stats.geomean
    (List.map
       (fun n ->
         Stats.mean
           (List.filter_map
              (fun sl -> match values_of n sl with [] -> None | xs -> Some (Stats.median xs))
              slices))
       (names_of (List.concat slices)))

(* Per-name quantiles, for the log. *)
let summarize (samples : (string * float) list) =
  List.iter
    (fun name ->
      let xs = List.filter_map (fun (m, v) -> if m = name then Some v else None) samples in
      say "%-9s n=%-5d p50 %.3f ms  p90 %.3f ms\n" name (List.length xs) (Stats.median xs)
        (Stats.quantile 0.9 xs))
    (names_of samples)

(* [slices]: each slice's latencies, for the median; [tail]: the
   latencies the 90th percentile is taken over. *)
let end_to_end ~slices ~tail ~throughput ~speedup ~rss ~setup_s =
  [
    metric "request_ms_p50" "ms" (sliced_median slices);
    metric "request_ms_p90" "ms" (aggregate 0.9 tail);
    metric "throughput_rps" "1/s" throughput;
    metric "code_speedup_geomean" "x" speedup;
    metric "peak_rss_mb" "MB" rss;
    metric "setup_s" "s" setup_s;
  ]

(* ------------------------------------------------------------------ *)
(* Timed runs                                                          *)
(* ------------------------------------------------------------------ *)

(* A timed run is cut into slices.  Each slice is a child forked from the
   harness before the harness has built or compiled anything, so every
   slice starts cold: it times its own set-up on an empty memo, then
   measures.  The slices run one after another, so the set-up samples
   are spread over the run, and each slice starts from the same state
   however long the run has been going. *)
type slice = {
  sl_setup_ms : float;
  sl_samples : (int * float) list;  (** (program index, latency) of accepted requests *)
  sl_first : (string, string) result option array;  (** each program's first output in the slice *)
  sl_attempted : int;
  sl_failed : int;
  sl_loop_ms : float;
  sl_hwm : float;
}

let timed_setup w ~seed =
  let t0 = now_ms () in
  let programs, first = setup w ~seed in
  (programs, first, now_ms () -. t0)

(* Slices of a paper-suite or nmm-chains run, each [seconds / slices]
   long. *)
let slices = 8

(* A slice reads its peak RSS after its set-up and this many requests (or
   at its end, if sooner).  The heap still grows through a slice, so a
   reading at its end would depend on how fast the host let it run. *)
let rss_requests = function Paper_suite -> 200 | Nmm_chains -> 56 | Gen_corpus -> 0

(* A round-robin slice.  Slices start at different programs, so that
   short ones still cover every program between them.  A request fails if
   it raised, degraded, or gave other bytes than the program's first
   output. *)
let round_robin_slice w ~seed ~index ~ms =
  in_child (fun () ->
      let programs, first, setup_ms = timed_setup w ~seed in
      let n = Array.length programs in
      let start = index * n / slices in
      let samples = ref [] and failed = ref 0 and attempted = ref 0 and hwm = ref None in
      let t_start = now_ms () in
      while now_ms () -. t_start < ms do
        if !attempted = rss_requests w then hwm := Some (vmhwm_mb (Unix.getpid ()));
        let k = (start + !attempted) mod n in
        let p = programs.(k) in
        let t0 = now_ms () in
        let r = compile (config p.rules) p.src in
        let dt = now_ms () -. t0 in
        incr attempted;
        if first.(k) = None then first.(k) <- Some r;
        if Result.is_ok r && Some r = first.(k) then samples := (k, dt) :: !samples
        else incr failed
      done;
      {
        sl_setup_ms = setup_ms;
        sl_samples = !samples;
        sl_first = first;
        sl_attempted = !attempted;
        sl_failed = !failed;
        sl_loop_ms = now_ms () -. t_start;
        sl_hwm = (match !hwm with Some h -> h | None -> vmhwm_mb (Unix.getpid ()));
      })

(* One gen-corpus pass: every case once, cold.  Its loop time is the sum
   of its request times. *)
let gen_pass (programs : program array) =
  let lat = Array.make (Array.length programs) 0. in
  let out =
    Array.mapi
      (fun i p ->
        let cfg = config p.rules in
        let t0 = now_ms () in
        let r = compile cfg p.src in
        lat.(i) <- now_ms () -. t0;
        r)
      programs
  in
  (lat, out)

(* A gen-corpus slice: set-up, then one pass, so every pass repeats the
   same work exactly. *)
let gen_slice ~seed =
  in_child (fun () ->
      let programs, _, setup_ms = timed_setup Gen_corpus ~seed in
      let lat, out = gen_pass programs in
      let errors = Array.fold_left (fun a r -> if Result.is_error r then a + 1 else a) 0 out in
      {
        sl_setup_ms = setup_ms;
        sl_samples =
          List.filter_map
            (fun i -> if Result.is_ok out.(i) then Some (i, lat.(i)) else None)
            (List.init (Array.length lat) Fun.id);
        sl_first = Array.map Option.some out;
        sl_attempted = Array.length out;
        sl_failed = errors;
        sl_loop_ms = Array.fold_left ( +. ) 0. lat;
        sl_hwm = vmhwm_mb (Unix.getpid ());
      })

let timed w ~seed ~seconds : outcome =
  let budget_ms = seconds *. 1000. in
  (* Every slice must give each program the same bytes.  A slice's outputs
     are compared as it returns and then dropped, so the harness, which
     later slices are forked from, does not grow with the number of slices
     and neither does their peak RSS. *)
  let outs = ref [||] and mismatches = ref [] in
  let merge sl =
    if Array.length !outs = 0 then outs := Array.map (fun _ -> None) sl.sl_first;
    Array.iteri
      (fun i r ->
        match (r, !outs.(i)) with
        | None, _ -> ()
        | Some r, None -> !outs.(i) <- Some r
        | Some r, Some r' -> if r <> r' then mismatches := i :: !mismatches)
      sl.sl_first;
    { sl with sl_first = [||] }
  in
  let slices =
    match w with
    | Paper_suite | Nmm_chains ->
      List.init slices (fun index ->
          merge (round_robin_slice w ~seed ~index ~ms:(budget_ms /. float_of_int slices)))
    | Gen_corpus ->
      (* passes until their request time fills the budget *)
      let rec more acc spent =
        if acc <> [] && spent >= budget_ms then List.rev acc
        else
          let sl = merge (gen_slice ~seed) in
          more (sl :: acc) (spent +. sl.sl_loop_ms)
      in
      more [] 0.
  in
  (* the harness builds the inputs only now, for the checks *)
  Mlir.Registry.ensure_registered ();
  let programs = inputs w ~seed in
  let n = Array.length programs in
  let outs =
    Array.mapi
      (fun i o -> match o with Some r -> r | None -> compile (config programs.(i).rules) programs.(i).src)
      !outs
  in
  let problems, speedup = check_outputs programs outs in
  let mismatches = List.sort_uniq compare !mismatches in
  let sum f = List.fold_left (fun acc sl -> acc + f sl) 0 slices in
  let attempted = sum (fun sl -> sl.sl_attempted) in
  let failed = sum (fun sl -> sl.sl_failed) + List.length mismatches in
  let name i = programs.(i).name in
  let by_slice = List.map (fun sl -> List.map (fun (i, v) -> (name i, v)) sl.sl_samples) slices in
  let tail =
    match w with
    | Paper_suite | Nmm_chains -> List.concat by_slice
    | Gen_corpus ->
      (* a case's latency is its median over the passes, so the tail
         describes the corpus rather than the moments a pass was unlucky *)
      let per_case = Array.make n [] in
      List.iter (fun sl -> List.iter (fun (i, v) -> per_case.(i) <- v :: per_case.(i)) sl.sl_samples) slices;
      List.filter_map
        (fun i -> if per_case.(i) = [] then None else Some (name i, Stats.median per_case.(i)))
        (List.init n Fun.id)
  in
  say "%s: %d slices\n"
    (match w with Paper_suite -> "paper-suite" | Nmm_chains -> "nmm-chains" | Gen_corpus -> "gen-corpus")
    (List.length slices);
  summarize tail;
  let throughput =
    match w with
    | Paper_suite | Nmm_chains ->
      float_of_int attempted *. 1000. /. List.fold_left (fun acc sl -> acc +. sl.sl_loop_ms) 0. slices
    | Gen_corpus ->
      (* cases per second of request time, each case at its median over
         the passes as in the tail: a pass that meets a slow moment of
         the host does not decide it *)
      float_of_int (List.length tail) *. 1000. /. List.fold_left (fun acc (_, v) -> acc +. v) 0. tail
  in
  {
    correct = failed = 0 && problems = [];
    attempted;
    failed;
    problems =
      problems @ List.map (fun i -> Printf.sprintf "%s (program %d): output differs between slices" (name i) i) mismatches;
    metrics =
      end_to_end ~slices:by_slice ~tail ~throughput ~speedup
        ~rss:(Stats.median (List.map (fun sl -> sl.sl_hwm) slices))
        ~setup_s:(Stats.median (List.map (fun sl -> sl.sl_setup_ms) slices) /. 1000.);
  }

(* ------------------------------------------------------------------ *)
(* Traced runs                                                         *)
(* ------------------------------------------------------------------ *)

(* Fixed work, so two traced runs must agree on every count. *)
let traced_rounds = function Paper_suite -> 40 | Nmm_chains -> 1 | Gen_corpus -> 1

(* One traced pass in a forked child: every program [traced_rounds]
   times through the replica.  On warm workloads each request is first
   compiled untraced too, for the replica check and the tracing
   overhead; a gen-corpus case must meet its static tiers cold, so its
   untraced reference is a separate pass. *)
let traced_pass w ~interleave (programs : program array) =
  in_child (fun () ->
      let traced = ref [] and untraced = ref [] and untraced_ms = ref 0. in
      for _ = 1 to traced_rounds w do
        Array.iter
          (fun p ->
            let cfg = config p.rules in
            if interleave then begin
              let t0 = now_ms () in
              let r = compile cfg p.src in
              untraced_ms := !untraced_ms +. (now_ms () -. t0);
              untraced := r :: !untraced
            end;
            traced :=
              (match Replica.optimize_source cfg p.src with
              | out, req -> (Ok out, Some req)
              | exception e -> (Error (Printexc.to_string e), None))
              :: !traced)
          programs
      done;
      (List.rev !traced, List.rev !untraced, !untraced_ms))

let traced w ~seed : outcome =
  let programs, _ = setup w ~seed in
  let n = Array.length programs in
  let interleave = w <> Gen_corpus in
  let t1, untraced1, untraced_ms1 = traced_pass w ~interleave programs in
  let t2, _, _ = traced_pass w ~interleave programs in
  let untraced, untraced_ms =
    if interleave then (untraced1, untraced_ms1)
    else
      let lat, out = in_child (fun () -> gen_pass programs) in
      (Array.to_list out, Array.fold_left ( +. ) 0. lat)
  in
  let first = Array.of_list (List.filteri (fun i _ -> i < n) untraced) in
  let replica_diffs =
    List.filter_map Fun.id
      (List.mapi
         (fun i (t, u) ->
           match (t, u) with
           | Ok a, Ok b when String.equal a b -> None
           | Ok _, Ok _ -> Some (Printf.sprintf "request %d: replica output differs from optimize_source" i)
           | Error e, _ | _, Error e -> Some (Printf.sprintf "request %d: %s" i e))
         (List.combine (List.map fst t1) untraced))
  in
  (* the same request compiled again must give the same bytes *)
  let repeat_diffs =
    List.filter_map Fun.id
      (List.mapi
         (fun i r -> if r = first.(i mod n) then None else Some (Printf.sprintf "request %d: output differs from its first compile" i))
         untraced)
  in
  let oracle_problems, _ = check_outputs programs first in
  let reqs1 = List.filter_map snd t1 and reqs2 = List.filter_map snd t2 in
  let traced_ms = List.fold_left (fun acc r -> acc +. r.Replica.r_total_ms) 0. reqs1 in
  let problems = replica_diffs @ repeat_diffs @ oracle_problems @ Replica.compare_passes reqs1 reqs2 in
  {
    correct = problems = [];
    attempted = List.length t1;
    failed = List.length replica_diffs + List.length repeat_diffs;
    problems;
    metrics =
      Replica.metrics reqs1 @ [ metric "trace.overhead_frac" "fraction" ((traced_ms /. untraced_ms) -. 1.) ];
  }
