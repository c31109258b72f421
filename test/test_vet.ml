(* Tests for the static ruleset verifier (lib/dialegg/vet.ml): the
   soundness / termination / overlap passes over the fixture corpus and
   the shipped rulesets, the memoization of a ruleset's one static
   verdict (lib/dialegg/verdict.ml) and how the pipeline reports it, the
   duplicate-rule and duplicate-constructor checks in
   lib/egglog/check.ml, and a QCheck
   property tying the static verdict to the runtime translation
   validator.  Runs from _build/default/test, so fixtures/ and ../rules/
   are reachable relative paths (declared as deps in test/dune). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let read_file path = In_channel.with_open_text path In_channel.input_all

let pp_diags diags = Fmt.str "%a" Egglog.Diag.pp_list diags
let has_code c diags = List.exists (fun d -> d.Egglog.Diag.code = c) diags

let assert_code ?(what = "diagnostic codes") c diags =
  checkb (Fmt.str "%s include %s in: %s" what c (pp_diags diags)) true (has_code c diags)

let vet_fixture name = Dialegg.Vet.vet ~file:name (read_file ("fixtures/" ^ name))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let simple_module () =
  Mlir.Parser.parse_module
    "func.func @f(%a: i64) -> i64 {\n\
    \  %c = arith.constant 1 : i64\n\
    \  %s = arith.addi %a, %c : i64\n\
    \  func.return %s : i64\n\
     }"

(* ------------------------------------------------------------------ *)
(* Soundness pass                                                      *)
(* ------------------------------------------------------------------ *)

let test_unsound_fixture_rejected () =
  let r = vet_fixture "unsound_rule.egg" in
  checkb "has errors" true (Egglog.Diag.has_errors r.Dialegg.Vet.v_diags);
  assert_code "rule-range-widened" r.Dialegg.Vet.v_diags;
  (* the verdict is per-rule, not just global *)
  match r.Dialegg.Vet.v_rules with
  | [ ri ] -> checkb "rule marked unsound" false ri.Dialegg.Vet.vr_sound
  | rs -> Alcotest.failf "expected 1 rule, got %d" (List.length rs)

let test_sound_identities_pass () =
  (* x | 0 -> x and x & -1 -> x are genuinely sound: the interval domain
     must not narrow their left-hand sides *)
  let r =
    Dialegg.Vet.vet
      "(rewrite (arith_ori ?x (arith_constant (NamedAttr \"value\" (IntegerAttr 0 ?t)) \
       ?t) ?t) ?x)\n\
       (rewrite (arith_andi ?x (arith_constant (NamedAttr \"value\" (IntegerAttr -1 \
       ?t)) ?t) ?t) ?x)"
  in
  checkb (Fmt.str "no errors in: %s" (pp_diags r.Dialegg.Vet.v_diags)) false
    (Egglog.Diag.has_errors r.Dialegg.Vet.v_diags);
  checkb "all rules sound" true
    (List.for_all (fun ri -> ri.Dialegg.Vet.vr_sound) r.Dialegg.Vet.v_rules)

let test_type_change_rejected () =
  let r =
    Dialegg.Vet.vet
      "(rewrite (arith_addi ?x ?y (I64)) (arith_addi ?x ?y (I32)))"
  in
  assert_code "rule-type-changed" r.Dialegg.Vet.v_diags

let test_constant_change_rejected () =
  let r =
    Dialegg.Vet.vet
      "(rewrite (arith_constant (NamedAttr \"value\" (FloatAttr 1.0 (F64))) (F64))\n\
      \         (arith_constant (NamedAttr \"value\" (FloatAttr 2.0 (F64))) (F64)))"
  in
  assert_code "rule-range-widened" r.Dialegg.Vet.v_diags

(* ------------------------------------------------------------------ *)
(* Termination / expansion pass                                        *)
(* ------------------------------------------------------------------ *)

let test_expansive_cycle_fixture () =
  let r = vet_fixture "expansive_cycle.egg" in
  checkb "no errors" false (Egglog.Diag.has_errors r.Dialegg.Vet.v_diags);
  assert_code "expansive-cycle" r.Dialegg.Vet.v_diags;
  checki "both rules size-preserving" 2
    (List.length
       (List.filter
          (fun ri -> ri.Dialegg.Vet.vr_class = Dialegg.Vet.Size_preserving)
          r.Dialegg.Vet.v_rules))

let test_matmul_assoc_expansive () =
  let r = Dialegg.Vet.vet Dialegg.Rules.matmul_assoc in
  checkb "no errors" false (Egglog.Diag.has_errors r.Dialegg.Vet.v_diags);
  assert_code "expansive-cycle" r.Dialegg.Vet.v_diags;
  checkb "has an expanding rule" true
    (List.exists
       (fun ri -> ri.Dialegg.Vet.vr_class = Dialegg.Vet.Expanding)
       r.Dialegg.Vet.v_rules)

let test_const_fold_contracting () =
  let r = Dialegg.Vet.vet Dialegg.Rules.const_fold in
  checkb "no errors" false (Egglog.Diag.has_errors r.Dialegg.Vet.v_diags);
  checkb "no expansive cycle" false (has_code "expansive-cycle" r.Dialegg.Vet.v_diags);
  checkb "rules found" true (r.Dialegg.Vet.v_rules <> []);
  checkb "all contracting" true
    (List.for_all
       (fun ri -> ri.Dialegg.Vet.vr_class = Dialegg.Vet.Contracting)
       r.Dialegg.Vet.v_rules)

(* ------------------------------------------------------------------ *)
(* Overlap / shadowing pass                                            *)
(* ------------------------------------------------------------------ *)

let test_shadowed_fixture () =
  let r = vet_fixture "shadowed_rule.egg" in
  checkb "no errors" false (Egglog.Diag.has_errors r.Dialegg.Vet.v_diags);
  assert_code "rule-shadowed" r.Dialegg.Vet.v_diags

let test_duplicate_rule_shadowed () =
  let r =
    Dialegg.Vet.vet
      "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?y ?x ?t))\n\
       (rewrite (arith_addi ?a ?b ?s) (arith_addi ?b ?a ?s))"
  in
  assert_code "rule-shadowed" r.Dialegg.Vet.v_diags

let test_overlap_critical_pair () =
  let r =
    Dialegg.Vet.vet
      "(rewrite (arith_subi ?x ?y ?t) (arith_addi ?x ?y ?t))\n\
       (rewrite (arith_subi ?a ?b ?s) (arith_xori ?a ?b ?s))"
  in
  assert_code "rule-overlap" r.Dialegg.Vet.v_diags

(* ------------------------------------------------------------------ *)
(* Shipped rulesets stay clean                                         *)
(* ------------------------------------------------------------------ *)

let test_shipped_rules_clean () =
  List.iter
    (fun f ->
      let path = "../rules/" ^ f in
      let r = Dialegg.Vet.vet ~file:path (read_file path) in
      checkb
        (Fmt.str "%s vets without errors: %s" f (pp_diags r.Dialegg.Vet.v_diags))
        false
        (Egglog.Diag.has_errors r.Dialegg.Vet.v_diags))
    [
      "prelude.egg";
      "const_fold.egg";
      "div_pow2.egg";
      "fast_inv_sqrt.egg";
      "horner.egg";
      "matmul_assoc.egg";
    ]

(* ------------------------------------------------------------------ *)
(* Memoization                                                         *)
(* ------------------------------------------------------------------ *)

let fresh_dir () =
  let d = Filename.temp_file "dialegg-verdict-test" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* Each tier's first read in the process gets the status the verdict
   arrived with, a later read [Hit_memory]; the one computation leaves
   one disk entry. *)
let test_verdict_memoizes () =
  let open Dialegg.Verdict in
  let dir = fresh_dir () in
  (* a source no other test reads, so the first read really computes *)
  let src = "; memoization probe\n" ^ Dialegg.Rules.const_fold in
  let read tiers = snd (read ~cache_dir:dir ~tiers src) in
  checkb "first read computes" true (read [ Vet ] = [ (Vet, Computed) ]);
  checkb "second read hits the in-process memo" true (read [ Vet ] = [ (Vet, Hit_memory) ]);
  checkb "each tier's first read gets the verdict's arrival" true
    (read [ Lint; Vet; Audit ] = [ (Lint, Computed); (Vet, Hit_memory); (Audit, Computed) ]);
  checkb "one disk entry, under the key" true
    (Sys.readdir dir = [| hash_source src ^ ".verdict" |])

let test_hash_is_content_keyed () =
  let h1 = Dialegg.Verdict.hash_source "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?y ?x ?t))" in
  let h2 = Dialegg.Verdict.hash_source "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?y ?x ?t)) " in
  checkb "different sources, different keys" false (String.equal h1 h2);
  checkb "same source, same key" true
    (String.equal h1
       (Dialegg.Verdict.hash_source "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?y ?x ?t))"))

(* An entry an older format left under the key is a miss: the verdict is
   computed again and the entry replaced. *)
let test_stale_entry_is_a_miss () =
  let open Dialegg.Verdict in
  let dir = fresh_dir () in
  let src = "; stale-entry probe\n" ^ Dialegg.Rules.const_fold in
  let key = hash_source src in
  let module Old = Dialegg.Disk_cache.Store (struct
    type t = string

    let ext = ".verdict"
    let version = "dialegg-verdict-0"
  end) in
  Old.add ~dir key "an older verdict";
  checkb "the stale entry is computed again" true
    (snd (read ~cache_dir:dir ~tiers:[ Audit ] src) = [ (Audit, Computed) ]);
  checkb "and replaced" true (Store.find ~dir key <> None)

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)
(* ------------------------------------------------------------------ *)

let test_pipeline_rejects_unsound_rules () =
  let m = simple_module () in
  let config =
    {
      Dialegg.Pipeline.default_config with
      rules = read_file "fixtures/unsound_rule.egg";
    }
  in
  match Dialegg.Pipeline.optimize_module_report ~config m with
  | _ -> Alcotest.fail "expected the vet tier to reject the ruleset"
  | exception Dialegg.Pipeline.Error msg ->
    checkb (Fmt.str "error mentions vet: %s" msg) true
      (contains_sub msg "rule-range-widened")

let test_pipeline_no_vet_escape_hatch () =
  let m = simple_module () in
  (* --no-vet: the bad ruleset reaches saturation, where the dynamic
     translation validator is the backstop; validation off too so the
     run completes *)
  let config =
    {
      Dialegg.Pipeline.default_config with
      rules = read_file "fixtures/unsound_rule.egg";
      vet = false;
      validate = false;
      max_iterations = 4;
    }
  in
  let report = Dialegg.Pipeline.optimize_module_report ~config m in
  checkb "vet skipped" true (report.Dialegg.Pipeline.r_vet = None)

(* One verdict serves every config: --no-vet ignores vet's part even
   once it is computed and in memory, and audit's part still fails the
   run. *)
let test_pipeline_no_vet_reads_one_verdict () =
  let config rules =
    {
      Dialegg.Pipeline.default_config with
      rules = read_file ("fixtures/" ^ rules);
      validate = false;
      max_iterations = 4;
    }
  in
  let fails config =
    match Dialegg.Pipeline.optimize_module_report ~config (simple_module ()) with
    | _ -> None
    | exception Dialegg.Pipeline.Error msg -> Some msg
  in
  let unsound = config "unsound_rule.egg" in
  checkb "vet's part fails the run" true (fails unsound <> None);
  checkb "--no-vet ignores it" true (fails { unsound with vet = false } = None);
  match fails { (config "costless_reachable.egg") with vet = false } with
  | Some msg -> checkb msg true (contains_sub msg "rules failed encoding audit")
  | None -> Alcotest.fail "expected --no-vet to leave the audit tier failing the run"

(* Warnings go to stderr the first time a process reads a tier: a
   ruleset compiled twice prints its lint warning once. *)
let test_pipeline_lint_warns_once () =
  let config =
    {
      Dialegg.Pipeline.default_config with
      rules = "; lint-once probe\n(function mydsl_probe (Op Type) Op)";
    }
  in
  let tmp = Filename.temp_file "dialegg-stderr" ".txt" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush Format.err_formatter ();
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    (fun () ->
      for _ = 1 to 2 do
        ignore (Dialegg.Pipeline.optimize_module_report ~config (simple_module ()))
      done);
  let lines = String.split_on_char '\n' (read_file tmp) in
  checki "op-no-cost printed once" 1
    (List.length (List.filter (fun l -> contains_sub l "op-no-cost") lines))

let test_pipeline_report_carries_vet () =
  let m = simple_module () in
  let config =
    { Dialegg.Pipeline.default_config with rules = Dialegg.Rules.const_fold }
  in
  let report = Dialegg.Pipeline.optimize_module_report ~config m in
  match report.Dialegg.Pipeline.r_vet with
  | Some (v, _) -> checkb "vet report has rules" true (v.Dialegg.Vet.v_rules <> [])
  | None -> Alcotest.fail "expected a vet report in the pipeline report"

(* ------------------------------------------------------------------ *)
(* Duplicate rule names / datatype constructors (check.ml)             *)
(* ------------------------------------------------------------------ *)

let check_src src =
  let env = Dialegg.Lint.fresh_env () in
  Egglog.Check.check_program ~env src

let test_duplicate_rule_name () =
  let diags =
    check_src
      "(ruleset rs)\n\
       (rule ((= ?a (arith_addi ?x ?y ?t))) ((union ?a ?x)) :name \"r\" :ruleset rs)\n\
       (rule ((= ?a (arith_subi ?x ?y ?t))) ((union ?a ?x)) :name \"r\" :ruleset rs)"
  in
  assert_code "duplicate-rule" diags

let test_duplicate_constructor () =
  let diags = check_src "(datatype T (Mk i64) (Mk i64 i64))" in
  assert_code "duplicate-constructor" diags

let test_distinct_names_ok () =
  let diags =
    check_src
      "(ruleset rs)\n\
       (rule ((= ?a (arith_addi ?x ?y ?t))) ((union ?a ?x)) :name \"r1\" :ruleset rs)\n\
       (rule ((= ?a (arith_subi ?x ?y ?t))) ((union ?a ?x)) :name \"r2\" :ruleset rs)"
  in
  checkb (Fmt.str "no duplicate-rule in: %s" (pp_diags diags)) false
    (has_code "duplicate-rule" diags)

(* ------------------------------------------------------------------ *)
(* Property: vet-sound rules never trip the runtime validator          *)
(* ------------------------------------------------------------------ *)

let test_vet_sound_rules_validate_prop () =
  let rules = Dialegg.Rules.const_fold ^ Dialegg.Rules.div_pow2 in
  let vet_report = Dialegg.Vet.vet rules in
  checkb
    (Fmt.str "ruleset is vet-sound: %s" (pp_diags vet_report.Dialegg.Vet.v_diags))
    false
    (Egglog.Diag.has_errors vet_report.Dialegg.Vet.v_diags);
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"vet-sound rules never trip the translation validator"
       ~count:40
       (QCheck.make
          QCheck.Gen.(
            Test_support.Gen_mlir.program_gen >>= fun p ->
            Test_support.Gen_mlir.args_gen p >>= fun args -> return (p, args)))
       (fun (p, args) ->
         let m = Test_support.Gen_mlir.to_module p in
         let before =
           try Some (Test_support.Gen_mlir.run_module m args)
           with Mlir.Interp.Runtime_error _ -> None
         in
         let config =
           {
             Dialegg.Pipeline.default_config with
             rules;
             max_iterations = 8;
             max_nodes = 20_000;
             timeout = Some 10.0;
             (* validate on: an error-severity validation diagnostic
                would raise Pipeline.Error and fail the property *)
             validate = true;
           }
         in
         ignore (Dialegg.Pipeline.optimize_module ~config m);
         Mlir.Verifier.verify_exn m;
         match before with
         | None -> true
         | Some v -> Test_support.Gen_mlir.run_module m args = v))

let () =
  Alcotest.run "vet"
    [
      ( "soundness",
        [
          Alcotest.test_case "unsound fixture rejected" `Quick
            test_unsound_fixture_rejected;
          Alcotest.test_case "sound identities pass" `Quick test_sound_identities_pass;
          Alcotest.test_case "type change rejected" `Quick test_type_change_rejected;
          Alcotest.test_case "constant change rejected" `Quick
            test_constant_change_rejected;
        ] );
      ( "termination",
        [
          Alcotest.test_case "expansive cycle fixture" `Quick
            test_expansive_cycle_fixture;
          Alcotest.test_case "matmul assoc expansive" `Quick test_matmul_assoc_expansive;
          Alcotest.test_case "const fold contracting" `Quick test_const_fold_contracting;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "shadowed fixture" `Quick test_shadowed_fixture;
          Alcotest.test_case "alpha-equal duplicate" `Quick test_duplicate_rule_shadowed;
          Alcotest.test_case "critical pair" `Quick test_overlap_critical_pair;
        ] );
      ( "shipped",
        [ Alcotest.test_case "rules/*.egg vet clean" `Quick test_shipped_rules_clean ] );
      ( "cache",
        [
          Alcotest.test_case "memoizes by content hash" `Quick test_verdict_memoizes;
          Alcotest.test_case "hash is content-keyed" `Quick test_hash_is_content_keyed;
          Alcotest.test_case "a stale entry is a miss" `Quick test_stale_entry_is_a_miss;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "rejects unsound rules" `Quick
            test_pipeline_rejects_unsound_rules;
          Alcotest.test_case "--no-vet escape hatch" `Quick
            test_pipeline_no_vet_escape_hatch;
          Alcotest.test_case "report carries vet" `Quick test_pipeline_report_carries_vet;
          Alcotest.test_case "--no-vet reads one verdict" `Quick
            test_pipeline_no_vet_reads_one_verdict;
          Alcotest.test_case "lint warnings print once" `Quick test_pipeline_lint_warns_once;
        ] );
      ( "check",
        [
          Alcotest.test_case "duplicate rule name" `Quick test_duplicate_rule_name;
          Alcotest.test_case "duplicate constructor" `Quick test_duplicate_constructor;
          Alcotest.test_case "distinct names ok" `Quick test_distinct_names_ok;
        ] );
      ( "property",
        [
          Alcotest.test_case "vet-sound rules validate" `Quick
            test_vet_sound_rules_validate_prop;
        ] );
    ]
