(* Tests for the benchmark workloads: every benchmark must parse, verify,
   execute, and produce reference-correct output under every optimization
   variant, and the optimized variants must never be slower (cost proxy)
   than the baseline. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* small scales to keep the suite fast *)
let test_scale (b : Workloads.Benchmark.t) =
  if b.name = "2MM" || b.name = "3MM" then b.default_scale else max 2 (b.default_scale / 20)

let test_benchmark_correct (b : Workloads.Benchmark.t) () =
  let scale = test_scale b in
  let ms = Workloads.Runner.run_all_variants ~runs:1 b ~scale in
  List.iter
    (fun (m : Workloads.Runner.measurement) ->
      match m.m_check with
      | Ok () -> ()
      | Error e ->
        Alcotest.fail
          (Printf.sprintf "%s/%s: wrong output: %s" b.name
             (Workloads.Runner.variant_name m.m_variant)
             e))
    ms;
  (* optimized variants must not be worse than baseline in the cost proxy *)
  let cycles v =
    (List.find (fun (m : Workloads.Runner.measurement) -> m.m_variant = v) ms).m_cycles
  in
  let base = cycles Workloads.Runner.Baseline in
  List.iter
    (fun (m : Workloads.Runner.measurement) ->
      if m.m_cycles > base then
        Alcotest.fail
          (Printf.sprintf "%s/%s: %d cycles > baseline %d" b.name
             (Workloads.Runner.variant_name m.m_variant)
             m.m_cycles base))
    ms

let test_dialegg_strictly_faster (b : Workloads.Benchmark.t) () =
  (* every benchmark was chosen because DialEgg finds a real optimization *)
  let scale = test_scale b in
  let base = Workloads.Runner.prepare b ~scale Workloads.Runner.Baseline in
  let opt = Workloads.Runner.prepare b ~scale Workloads.Runner.Dialegg in
  let mb = Workloads.Runner.measure ~runs:1 b ~scale base Workloads.Runner.Baseline in
  let mo = Workloads.Runner.measure ~runs:1 b ~scale opt Workloads.Runner.Dialegg in
  checkb
    (Printf.sprintf "%s: dialegg (%d) < baseline (%d)" b.name mo.m_cycles mb.m_cycles)
    true (mo.m_cycles < mb.m_cycles)

let test_3mm_greedy_suboptimal () =
  (* the paper's §8.4 headline: the greedy pass loses to DialEgg on 3MM *)
  let b = Workloads.Matmul_chain.benchmark_3mm in
  let scale = 3 in
  let greedy = Workloads.Runner.prepare b ~scale Workloads.Runner.Handwritten in
  let dialegg = Workloads.Runner.prepare b ~scale Workloads.Runner.Dialegg in
  let mg = Workloads.Runner.measure ~runs:1 b ~scale greedy Workloads.Runner.Handwritten in
  let md = Workloads.Runner.measure ~runs:1 b ~scale dialegg Workloads.Runner.Dialegg in
  checkb "greedy output correct" true (mg.m_check = Ok ());
  checkb
    (Printf.sprintf "dialegg (%d) beats greedy (%d) on 3MM" md.m_cycles mg.m_cycles)
    true (md.m_cycles < mg.m_cycles)

let test_2mm_greedy_matches () =
  let b = Workloads.Matmul_chain.benchmark_2mm in
  let scale = 2 in
  let greedy = Workloads.Runner.prepare b ~scale Workloads.Runner.Handwritten in
  let dialegg = Workloads.Runner.prepare b ~scale Workloads.Runner.Dialegg in
  let mg = Workloads.Runner.measure ~runs:1 b ~scale greedy Workloads.Runner.Handwritten in
  let md = Workloads.Runner.measure ~runs:1 b ~scale dialegg Workloads.Runner.Dialegg in
  checki "2MM: greedy matches dialegg" md.m_cycles mg.m_cycles

let test_canon_is_noop_on_benchmarks () =
  (* paper Fig. 3: canonicalization alone achieves no speedup on these *)
  List.iter
    (fun (b : Workloads.Benchmark.t) ->
      let scale = test_scale b in
      let base = Workloads.Runner.prepare b ~scale Workloads.Runner.Baseline in
      let canon = Workloads.Runner.prepare b ~scale Workloads.Runner.Canon in
      let mb = Workloads.Runner.measure ~runs:1 b ~scale base Workloads.Runner.Baseline in
      let mc = Workloads.Runner.measure ~runs:1 b ~scale canon Workloads.Runner.Canon in
      checki (b.name ^ ": canon = baseline cycles") mb.m_cycles mc.m_cycles)
    Workloads.Suite.all

let test_table1_counts () =
  (* our programs must use the same dialect mix as the paper's (the exact
     counts differ since the programs were rewritten from the description) *)
  List.iter
    (fun (b : Workloads.Benchmark.t) ->
      let m = Workloads.Benchmark.build b ~scale:(test_scale b) in
      let counts = Workloads.Benchmark.dialect_counts m in
      let get d = Option.value ~default:0 (List.assoc_opt d counts) in
      let paper = List.assoc b.name Workloads.Suite.paper_table1 in
      List.iter
        (fun (dialect, paper_count) ->
          let ours = get dialect in
          if paper_count > 0 && ours = 0 && dialect <> "tensor" then
            Alcotest.fail
              (Printf.sprintf "%s: paper uses dialect %s but we do not" b.name dialect))
        paper)
    Workloads.Suite.all

let test_nmm_chain_generator () =
  List.iter
    (fun n ->
      let src = Workloads.Matmul_chain.source ~scale:n in
      let m = Mlir.Parser.parse_module src in
      Mlir.Verifier.verify_exn m;
      checki
        (Printf.sprintf "%dMM has %d matmuls" n n)
        n
        (List.length (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "linalg.matmul") m)))
    [ 2; 3; 5; 10 ]

let test_nmm_pipeline_improves () =
  (* a longer random chain: dialegg must still produce a valid, cheaper or
     equal chain *)
  let b = Workloads.Matmul_chain.benchmark_nmm 6 in
  let base = Workloads.Runner.prepare b ~scale:6 Workloads.Runner.Baseline in
  let opt = Workloads.Runner.prepare b ~scale:6 Workloads.Runner.Dialegg in
  let mb = Workloads.Runner.measure ~runs:1 b ~scale:6 base Workloads.Runner.Baseline in
  let mo = Workloads.Runner.measure ~runs:1 b ~scale:6 opt Workloads.Runner.Dialegg in
  checkb "6MM output correct" true (mo.m_check = Ok ());
  checkb "6MM not worse" true (mo.m_cycles <= mb.m_cycles)

(* The paper's §8.4 claim as an exact check: saturating a matrix chain
   under associativity and extracting finds the cheapest association,
   which the textbook O(n^3) dynamic program computes independently of
   the engine.  A chain left unsaturated (a scheduler or a plan shared
   wrongly between engines) extracts a dearer one. *)
let chain_dp (dims : int array) =
  (* matrix i is dims.(i) x dims.(i+1) *)
  let n = Array.length dims - 1 in
  let best = Array.make_matrix n n 0 in
  for len = 2 to n do
    for i = 0 to n - len do
      let j = i + len - 1 in
      best.(i).(j) <- max_int;
      for k = i to j - 1 do
        let c = best.(i).(k) + best.(k + 1).(j) + (dims.(i) * dims.(k + 1) * dims.(j + 1)) in
        if c < best.(i).(j) then best.(i).(j) <- c
      done
    done
  done;
  best.(0).(n - 1)

(* scalar multiplications of a module's linalg.matmul ops *)
let matmul_mults m =
  List.fold_left
    (fun acc (o : Mlir.Ir.op) ->
      match
        ( Mlir.Typ.shape o.Mlir.Ir.operands.(0).Mlir.Ir.v_type,
          Mlir.Typ.shape o.Mlir.Ir.operands.(1).Mlir.Ir.v_type )
      with
      | Some [ a; b ], Some [ _; c ] -> acc + (a * b * c)
      | _ -> Alcotest.fail "a matmul operand is not a rank-2 tensor")
    0
    (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "linalg.matmul") m)

(* a chain of [n] matmuls whose n + 2 dimensions are all distinct *)
let rec distinct_dims ~n ~seed =
  let dims = Workloads.Matmul_chain.dims_for ~n ~seed in
  if List.length (List.sort_uniq compare dims) = List.length dims then dims
  else distinct_dims ~n ~seed:(seed + 1_000_003)

let test_nmm_dp_optimal () =
  let config = { Dialegg.Pipeline.default_config with rules = Dialegg.Rules.matmul_assoc } in
  let improved = ref 0 in
  for n = 3 to 14 do
    List.iter
      (fun seed ->
        let dims = distinct_dims ~n ~seed in
        let src = Workloads.Matmul_chain.source_chain dims in
        let out = Mlir.Parser.parse_module (fst (Dialegg.Pipeline.optimize_source ~config src)) in
        let name = Printf.sprintf "%dMM, seed %d" n seed in
        let dp = chain_dp (Array.of_list dims) in
        checki (name ^ ": matmuls") n
          (List.length (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "linalg.matmul") out));
        checki (name ^ ": the DP's cost") dp (matmul_mults out);
        if matmul_mults (Mlir.Parser.parse_module src) > dp then incr improved)
      [ 7; 1001 ]
  done;
  checkb "most input chains were not optimal" true (!improved >= 20)

let test_rule_counts () =
  (* Table 2's #Rules column *)
  checki "img-conv rules" 1 (Dialegg.Rules.count_rules Dialegg.Rules.div_pow2);
  checki "vec-norm rules" 1 (Dialegg.Rules.count_rules Dialegg.Rules.fast_inv_sqrt);
  checki "poly rules" 8 (Dialegg.Rules.count_rules Dialegg.Rules.horner);
  checki "matmul rules" 2 (Dialegg.Rules.count_rules Dialegg.Rules.matmul_assoc)

let test_rng_deterministic () =
  let a = Workloads.Rng.create 7 and b = Workloads.Rng.create 7 in
  for _ = 1 to 100 do
    checkb "same stream" true (Workloads.Rng.float a = Workloads.Rng.float b)
  done;
  let c = Workloads.Rng.create 8 in
  checkb "different seed differs" true
    (List.init 10 (fun _ -> Workloads.Rng.int a 1000)
    <> List.init 10 (fun _ -> Workloads.Rng.int c 1000))

let () =
  let correctness =
    List.map
      (fun (b : Workloads.Benchmark.t) ->
        Alcotest.test_case (b.name ^ " all variants correct") `Slow (test_benchmark_correct b))
      Workloads.Suite.all
  in
  let speedups =
    List.map
      (fun (b : Workloads.Benchmark.t) ->
        Alcotest.test_case (b.name ^ " dialegg faster") `Slow (test_dialegg_strictly_faster b))
      Workloads.Suite.all
  in
  Alcotest.run "workloads"
    [
      ("correctness", correctness);
      ("speedups", speedups);
      ( "paper-claims",
        [
          Alcotest.test_case "3MM: greedy is suboptimal" `Slow test_3mm_greedy_suboptimal;
          Alcotest.test_case "2MM: greedy matches dialegg" `Slow test_2mm_greedy_matches;
          Alcotest.test_case "canonicalization is a no-op here" `Slow
            test_canon_is_noop_on_benchmarks;
          Alcotest.test_case "Table 1 dialect coverage" `Quick test_table1_counts;
          Alcotest.test_case "rule counts" `Quick test_rule_counts;
        ] );
      ( "generators",
        [
          Alcotest.test_case "NMM chains" `Quick test_nmm_chain_generator;
          Alcotest.test_case "NMM extraction is DP-optimal" `Quick test_nmm_dp_optimal;
          Alcotest.test_case "6MM improves" `Slow test_nmm_pipeline_improves;
          Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
        ] );
    ]
