(* The fuzzing subsystem's own tests: generator determinism and
   cleanliness, triage-signature stability, oracle sensitivity to a
   seeded silent miscompilation, and the ddmin reducer's contract
   (shrinking, dependency awareness, idempotence). *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  for i = 0 to 19 do
    let a = Gen.case ~seed:7 i and b = Gen.case ~seed:7 i in
    checks "same (seed, index), same module" a.Gen.c_mlir b.Gen.c_mlir;
    checks "same (seed, index), same ruleset" a.Gen.c_egg b.Gen.c_egg
  done;
  let differs =
    List.exists
      (fun i -> (Gen.case ~seed:7 i).Gen.c_mlir <> (Gen.case ~seed:8 i).Gen.c_mlir)
      (List.init 10 Fun.id)
  in
  checkb "different seeds generate different campaigns" true differs

let test_gen_well_formed () =
  (* every generated module parses, round-trips, and names an existing
     entry function; every generated ruleset is vet- and audit-clean *)
  for i = 0 to 29 do
    let c = Gen.case ~seed:11 i in
    let m = Mlir.Parser.parse_module c.Gen.c_mlir in
    checkb "entry function exists" true
      (Mlir.Ir.find_function m c.Gen.c_func <> None);
    ignore (Mlir.Printer.module_to_string m);
    if String.trim c.Gen.c_egg <> "" then begin
      let vet = Dialegg.Vet.vet c.Gen.c_egg in
      checkb "generated ruleset is vet-clean" false
        (Egglog.Diag.has_errors vet.Dialegg.Vet.v_diags);
      let audit = Dialegg.Audit.audit c.Gen.c_egg in
      checkb "generated ruleset is audit-clean" false
        (Egglog.Diag.has_errors audit.Dialegg.Audit.a_diags)
    end
  done

let test_gen_random_args () =
  let c = Gen.case ~shapes:[ Gen.Matmul ] ~seed:3 0 in
  let m = Mlir.Parser.parse_module c.Gen.c_mlir in
  let args = Gen.random_args ~seed:5 m c.Gen.c_func in
  let args' = Gen.random_args ~seed:5 m c.Gen.c_func in
  checkb "argument synthesis is deterministic in the seed" true
    (List.for_all2
       (fun a b ->
         match (a, b) with
         | Mlir.Interp.Rt t1, Mlir.Interp.Rt t2 ->
           t1.Mlir.Interp.shape = t2.Mlir.Interp.shape
           && t1.Mlir.Interp.data = t2.Mlir.Interp.data
         | a, b -> a = b)
       args args');
  checkb "fresh tensors per call (destructive interp)" true
    (List.for_all2
       (fun a b ->
         match (a, b) with
         | Mlir.Interp.Rt t1, Mlir.Interp.Rt t2 -> not (t1 == t2)
         | _ -> true)
       args args')

(* ------------------------------------------------------------------ *)
(* Triage signatures                                                   *)
(* ------------------------------------------------------------------ *)

let test_signature_stability () =
  let sig_of d = Fuzzing.Fuzz.signature ~oracle:"semantics" Fuzzing.Fuzz.Differential ~detail:d in
  checks "numeric values do not split a bucket"
    (sig_of "arg set 0: input computes -92:i64, optimized computes -93:i64")
    (sig_of "arg set 1: input computes 7:i64, optimized computes 1044:i64");
  checks "signs, decimals and exponents do not split a bucket"
    (sig_of "input computes -0.394092, optimized computes 1.2e-06")
    (sig_of "input computes 31.0, optimized computes 17.5");
  checks "whitespace runs and case do not split a bucket"
    (sig_of "Outputs  Differ\n badly")
    (sig_of "outputs differ badly");
  checkb "different oracles are different buckets" true
    (Fuzzing.Fuzz.signature ~oracle:"naive-diff" Fuzzing.Fuzz.Differential
       ~detail:"x"
    <> Fuzzing.Fuzz.signature ~oracle:"batch-diff" Fuzzing.Fuzz.Differential
         ~detail:"x");
  checkb "different severities are different buckets" true
    (Fuzzing.Fuzz.signature ~oracle:"o" Fuzzing.Fuzz.Crash ~detail:"x"
    <> Fuzzing.Fuzz.signature ~oracle:"o" Fuzzing.Fuzz.Hang ~detail:"x")

let test_severity_hierarchy () =
  let open Fuzzing.Fuzz in
  checkb "crash < nondeterminism < differential < validator" true
    (severity_rank Crash < severity_rank Hang
    && severity_rank Hang < severity_rank Nondet
    && severity_rank Nondet < severity_rank Differential
    && severity_rank Differential < severity_rank Validator)

(* ------------------------------------------------------------------ *)
(* Corpus persistence                                                  *)
(* ------------------------------------------------------------------ *)

let fresh_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dialegg-fuzz-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o700;
  d

let test_corpus_round_trip () =
  let corpus = fresh_dir () in
  let case = Gen.case ~seed:1 3 in
  let f = Fuzzing.Fuzz.failure ~oracle:"semantics" Fuzzing.Fuzz.Differential "boom 42" in
  (match Fuzzing.Fuzz.persist_failure ~corpus ~max_per_bucket:1 case f with
  | None -> Alcotest.fail "first repro of a bucket must persist"
  | Some prefix ->
    checkb "module written" true (Sys.file_exists (prefix ^ ".mlir"));
    checkb "ruleset written" true (Sys.file_exists (prefix ^ ".egg"));
    checkb "report written" true (Sys.file_exists (prefix ^ ".json")));
  checkb "bucket cap enforced" true
    (Fuzzing.Fuzz.persist_failure ~corpus ~max_per_bucket:1
       (Gen.case ~seed:1 4) f
    = None);
  Fuzzing.Fuzz.append_journal ~corpus case [ f ];
  Fuzzing.Fuzz.append_journal ~corpus (Gen.case ~seed:1 4) [];
  let next, buckets = Fuzzing.Fuzz.load_journal ~corpus in
  checki "resume continues after the last journaled index" 5 next;
  (match buckets with
  | [ (s, n) ] ->
    checks "the bucket signature survives the journal" f.Fuzzing.Fuzz.f_signature s;
    checki "with its count" 1 n
  | _ -> Alcotest.fail "expected exactly one journaled bucket")

(* ------------------------------------------------------------------ *)
(* Oracles: a clean case passes; the seeded miscompile is caught       *)
(* ------------------------------------------------------------------ *)

let test_clean_case_passes () =
  let case = Gen.case ~shapes:[ Gen.Arith ] ~seed:42 0 in
  match Fuzzing.Fuzz.run_case case with
  | Fuzzing.Fuzz.V_pass -> ()
  | Fuzzing.Fuzz.V_fail fs ->
    Alcotest.failf "clean case failed: %s"
      (String.concat "; "
         (List.map (fun f -> f.Fuzzing.Fuzz.f_detail) fs))

let alias_fault =
  { Dialegg.Faults.stage = Dialegg.Faults.Deeggify; kind = Dialegg.Faults.K_alias }

let find_alias_failure () =
  (* scan the deterministic matmul stream until the aliasing bug bites:
     it needs a square chain, so not every case triggers it *)
  let config =
    { Fuzzing.Fuzz.default_config with fz_inject = Some alias_fault }
  in
  let rec scan i =
    if i > 24 then None
    else
      let case = Gen.case ~shapes:[ Gen.Matmul ] ~seed:42 i in
      match Fuzzing.Fuzz.run_case ~config case with
      | Fuzzing.Fuzz.V_fail fs -> (
        match
          List.find_opt (fun f -> f.Fuzzing.Fuzz.f_oracle = "semantics") fs
        with
        | Some f -> Some (case, f, config)
        | None -> scan (i + 1))
      | Fuzzing.Fuzz.V_pass -> scan (i + 1)
  in
  scan 0

let test_alias_fault_found () =
  match find_alias_failure () with
  | None ->
    Alcotest.fail
      "the interpreter differential never caught the seeded aliasing bug"
  | Some (case, f, _) ->
    checkb "caught as a differential, not a crash" true
      (f.Fuzzing.Fuzz.f_severity = Fuzzing.Fuzz.Differential);
    (* the very same case is clean without the fault: the finding is
       the injection's doing, not the generator's *)
    (match Fuzzing.Fuzz.run_case case with
    | Fuzzing.Fuzz.V_pass -> ()
    | Fuzzing.Fuzz.V_fail _ -> Alcotest.fail "case must pass unfaulted")

(* ------------------------------------------------------------------ *)
(* Reducer                                                             *)
(* ------------------------------------------------------------------ *)

let test_ddmin () =
  let items = List.init 16 Fun.id in
  checkb "single culprit isolated" true
    (Fuzzing.Reduce.ddmin (fun l -> List.mem 7 l) items = [ 7 ]);
  let pair = Fuzzing.Reduce.ddmin (fun l -> List.mem 3 l && List.mem 12 l) items in
  checkb "interacting pair isolated" true (List.sort compare pair = [ 3; 12 ]);
  checkb "order preserved" true
    (Fuzzing.Reduce.ddmin (fun l -> List.mem 12 l && List.mem 3 l) items
    = [ 3; 12 ]);
  checkb "empty wins when the predicate allows it" true
    (Fuzzing.Reduce.ddmin (fun _ -> true) items = [])

let test_split_sexprs () =
  let src =
    "; a comment (with parens)\n\
     (rewrite (f ?x) ?x)\n\
     (rule ((= ?a (g \"str ; ) with junk\")))\n\
     \      ((union ?a ?a))) ; trailing\n\
     (sort T)\n"
  in
  match Fuzzing.Reduce.split_sexprs src with
  | [ a; b; c ] ->
    checks "first rule" "(rewrite (f ?x) ?x)" a;
    checkb "string literals do not confuse the scanner" true
      (String.length b > 0 && b.[0] = '(');
    checks "declarations survive" "(sort T)" c
  | l -> Alcotest.failf "expected 3 s-exprs, got %d" (List.length l)

let mini_module =
  {|func.func @f(%a: i64, %b: i64) -> i64 {
  %c0 = arith.constant 1 : i64
  %u = arith.addi %a, %c0 : i64
  %dead = arith.muli %u, %u : i64
  %r = arith.muli %a, %b : i64
  func.return %r : i64
}
func.func @noise(%x: i64) -> i64 {
  %y = arith.addi %x, %x : i64
  func.return %y : i64
}|}

let test_reduce_shrinks_and_is_idempotent () =
  (* a pipeline-free predicate keeps the test fast: the failure is
     simply "module still contains a muli inside @f" *)
  let pred (i : Fuzzing.Reduce.input) =
    let has_f =
      match Mlir.Parser.parse_module i.Fuzzing.Reduce.rd_mlir with
      | m -> Mlir.Ir.find_function m "f" <> None
      | exception _ -> false
    in
    has_f
    &&
    let rec contains_muli s i =
      i + 10 <= String.length s
      && (String.sub s i 10 = "arith.muli" || contains_muli s (i + 1))
    in
    contains_muli i.Fuzzing.Reduce.rd_mlir 0
  in
  let input =
    { Fuzzing.Reduce.rd_mlir = mini_module;
      rd_egg = "(sort T)\n(rewrite (f ?x) ?x)" }
  in
  let r1 = Fuzzing.Reduce.reduce pred input in
  checkb "the noise function is dropped" false
    (match Mlir.Parser.parse_module r1.Fuzzing.Reduce.rd_mlir with
    | m -> Mlir.Ir.find_function m "noise" <> None
    | exception _ -> true);
  checkb "ops shrink" true
    (Fuzzing.Reduce.op_count r1.Fuzzing.Reduce.rd_mlir
    < Fuzzing.Reduce.op_count mini_module);
  checkb "the rule is dropped, the declaration kept" true
    (r1.Fuzzing.Reduce.rd_egg = "(sort T)");
  checkb "still failing" true (pred r1);
  let r2 = Fuzzing.Reduce.reduce pred r1 in
  checks "reducing a reduced repro is a no-op (module)"
    r1.Fuzzing.Reduce.rd_mlir r2.Fuzzing.Reduce.rd_mlir;
  checks "reducing a reduced repro is a no-op (rules)"
    r1.Fuzzing.Reduce.rd_egg r2.Fuzzing.Reduce.rd_egg

let test_reduce_keeps_failing_input_on_false_pred () =
  let input = { Fuzzing.Reduce.rd_mlir = mini_module; rd_egg = "" } in
  let r = Fuzzing.Reduce.reduce (fun _ -> false) input in
  checks "non-failing inputs come back untouched" mini_module
    r.Fuzzing.Reduce.rd_mlir

let () =
  Alcotest.run "fuzzing"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic in (seed, index)" `Quick
            test_gen_deterministic;
          Alcotest.test_case "well-formed modules, clean rulesets" `Quick
            test_gen_well_formed;
          Alcotest.test_case "argument synthesis" `Quick test_gen_random_args;
        ] );
      ( "triage",
        [
          Alcotest.test_case "signature stability" `Quick
            test_signature_stability;
          Alcotest.test_case "severity hierarchy" `Quick
            test_severity_hierarchy;
          Alcotest.test_case "corpus round-trip" `Quick test_corpus_round_trip;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "clean case passes the battery" `Quick
            test_clean_case_passes;
          Alcotest.test_case "seeded aliasing bug is caught" `Quick
            test_alias_fault_found;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "ddmin" `Quick test_ddmin;
          Alcotest.test_case "s-expression chunking" `Quick test_split_sexprs;
          Alcotest.test_case "shrinks and is idempotent" `Quick
            test_reduce_shrinks_and_is_idempotent;
          Alcotest.test_case "refuses a non-failing input" `Quick
            test_reduce_keeps_failing_input_on_false_pred;
        ] );
    ]
