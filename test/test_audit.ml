(* Tests for the cross-layer encoding-contract auditor
   (lib/dialegg/audit.ml): the coverage/arity, sort-soundness,
   extraction-totality and effect/purity analyses over seeded-bad
   fixtures and the shipped rulesets, the (ruleset, prelude, registry
   fingerprint) key of the static verdict, the pipeline fail-fast wiring, and a
   QCheck property tying an audit-clean configuration to a
   verifier-clean round-trip.  Runs from _build/default/test, so
   fixtures/ and ../rules/ are reachable relative paths (declared as
   deps in test/dune). *)

let checkb = Alcotest.(check bool)

let read_file path = In_channel.with_open_text path In_channel.input_all

let pp_diags diags = Fmt.str "%a" Egglog.Diag.pp_list diags
let has_code c diags = List.exists (fun d -> d.Egglog.Diag.code = c) diags

let assert_code ?(what = "diagnostic codes") c diags =
  checkb (Fmt.str "%s include %s in: %s" what c (pp_diags diags)) true (has_code c diags)

let assert_located c diags =
  checkb (Fmt.str "%s diagnostic carries a span" c) true
    (List.exists
       (fun d -> d.Egglog.Diag.code = c && d.Egglog.Diag.span <> None)
       diags)

let audit_fixture name = Dialegg.Audit.audit ~file:name (read_file ("fixtures/" ^ name))

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
(* Coverage / arity                                                    *)
(* ------------------------------------------------------------------ *)

let test_arity_mismatch_rejected () =
  let r = audit_fixture "audit_arity_mismatch.egg" in
  checkb "has errors" true (Egglog.Diag.has_errors r.Dialegg.Audit.a_diags);
  assert_code "egg-arity-mismatch" r.Dialegg.Audit.a_diags;
  assert_located "egg-arity-mismatch" r.Dialegg.Audit.a_diags

let test_results_mismatch_rejected () =
  (* memref.copy has no results, so the trailing Type parameter breaks
     the encoding contract *)
  let r = Dialegg.Audit.audit "(function memref_copy_2 (Op Op Type) Op :cost 1)" in
  assert_code "egg-results-mismatch" r.Dialegg.Audit.a_diags

let test_unknown_op_is_warning () =
  (* a custom dialect is legal (the paper's §4 claim): unknown ops warn,
     they do not fail the audit *)
  let r =
    Dialegg.Audit.audit
      "(function cx_conj (Op Type) Op :cost 2)\n\
       (rewrite (cx_conj (cx_conj ?z ?t) ?t) ?z)"
  in
  assert_code "egg-op-unknown" r.Dialegg.Audit.a_diags;
  checkb
    (Fmt.str "no errors in: %s" (pp_diags r.Dialegg.Audit.a_diags))
    false
    (Egglog.Diag.has_errors r.Dialegg.Audit.a_diags);
  (* the coverage table reflects the unknown constructor *)
  checkb "cx_conj unregistered in the table" true
    (List.exists
       (fun c -> c.Dialegg.Audit.a_egg = "cx_conj" && not c.Dialegg.Audit.a_registered)
       r.Dialegg.Audit.a_ops)

(* ------------------------------------------------------------------ *)
(* Sort soundness                                                      *)
(* ------------------------------------------------------------------ *)

let test_sort_mismatch_rejected () =
  (* arith.addi produces int/index results; pinning its result sort to
     f64 in a rule is a contract violation *)
  let r =
    Dialegg.Audit.audit "(rewrite (arith_addi ?a ?b (F64)) (arith_addi ?b ?a (F64)))"
  in
  assert_code "egg-sort-mismatch" r.Dialegg.Audit.a_diags;
  assert_located "egg-sort-mismatch" r.Dialegg.Audit.a_diags

let test_sort_match_accepted () =
  (* same rule with a type the op can produce: clean *)
  let r =
    Dialegg.Audit.audit "(rewrite (arith_addi ?a ?b (I64)) (arith_addi ?b ?a (I64)))"
  in
  checkb
    (Fmt.str "no errors in: %s" (pp_diags r.Dialegg.Audit.a_diags))
    false
    (Egglog.Diag.has_errors r.Dialegg.Audit.a_diags)

(* ------------------------------------------------------------------ *)
(* Extraction totality                                                 *)
(* ------------------------------------------------------------------ *)

let test_costless_reachable_rejected () =
  let r = audit_fixture "costless_reachable.egg" in
  assert_code "cost-unreachable" r.Dialegg.Audit.a_diags;
  assert_located "cost-unreachable" r.Dialegg.Audit.a_diags;
  (* the coverage table marks it reachable with a default cost *)
  checkb "mydsl_fast_add reachable at default cost" true
    (List.exists
       (fun c ->
         c.Dialegg.Audit.a_egg = "mydsl_fast_add"
         && c.Dialegg.Audit.a_reachable
         && c.Dialegg.Audit.a_cost = Dialegg.Audit.Cost_default)
       r.Dialegg.Audit.a_ops)

let test_costless_unreachable_accepted () =
  (* the same costless declaration with no rule reaching it is fine:
     extraction can never pick what nothing introduces *)
  let r = Dialegg.Audit.audit "(function mydsl_fast_add (Op Op Type) Op)" in
  checkb
    (Fmt.str "no cost-unreachable in: %s" (pp_diags r.Dialegg.Audit.a_diags))
    false
    (has_code "cost-unreachable" r.Dialegg.Audit.a_diags)

let test_cost_rule_satisfies_totality () =
  (* an unstable-cost rule is a valid cost model *)
  let r =
    Dialegg.Audit.audit
      "(function mydsl_fast_add (Op Op Type) Op)\n\
       (rewrite (arith_addi ?a ?b ?t) (mydsl_fast_add ?a ?b ?t))\n\
       (rule ((= ?m (mydsl_fast_add ?a ?b ?t))) ((unstable-cost (mydsl_fast_add ?a ?b ?t) 2)))"
  in
  checkb
    (Fmt.str "no cost-unreachable in: %s" (pp_diags r.Dialegg.Audit.a_diags))
    false
    (has_code "cost-unreachable" r.Dialegg.Audit.a_diags);
  checkb "cost model recorded as a rule" true
    (List.exists
       (fun c ->
         c.Dialegg.Audit.a_egg = "mydsl_fast_add"
         && c.Dialegg.Audit.a_cost = Dialegg.Audit.Cost_rule)
       r.Dialegg.Audit.a_ops)

(* ------------------------------------------------------------------ *)
(* Effect / purity                                                     *)
(* ------------------------------------------------------------------ *)

let test_impure_rule_rejected () =
  let r = audit_fixture "impure_rule.egg" in
  assert_code "rule-impure-op" r.Dialegg.Audit.a_diags;
  assert_located "rule-impure-op" r.Dialegg.Audit.a_diags

let test_call_effect_exempt () =
  (* func.call is non-Pure but its only effect is Call: the paper's own
     fast-inv-sqrt outlining rule mentions it and must stay legal *)
  let r = Dialegg.Audit.audit (read_file "../rules/fast_inv_sqrt.egg") in
  checkb
    (Fmt.str "no rule-impure-op in: %s" (pp_diags r.Dialegg.Audit.a_diags))
    false
    (has_code "rule-impure-op" r.Dialegg.Audit.a_diags)

(* ------------------------------------------------------------------ *)
(* Shipped configurations stay clean                                   *)
(* ------------------------------------------------------------------ *)

let test_shipped_rules_clean () =
  List.iter
    (fun f ->
      let r = Dialegg.Audit.audit ~file:f (read_file ("../rules/" ^ f)) in
      checkb
        (Fmt.str "%s audits without errors: %s" f (pp_diags r.Dialegg.Audit.a_diags))
        false
        (Egglog.Diag.has_errors r.Dialegg.Audit.a_diags);
      checkb (Fmt.str "%s: every prelude constructor is registered" f) true
        (List.for_all (fun c -> c.Dialegg.Audit.a_registered) r.Dialegg.Audit.a_ops))
    [
      "prelude.egg";
      "const_fold.egg";
      "div_pow2.egg";
      "fast_inv_sqrt.egg";
      "horner.egg";
      "matmul_assoc.egg";
    ]

(* ------------------------------------------------------------------ *)
(* The verdict key                                                     *)
(* ------------------------------------------------------------------ *)

(* A prelude edit must invalidate cached verdicts: the key folds in the
   prelude's digest. *)
let test_prelude_keys_the_hash () =
  let src = "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?y ?x ?t))" in
  let digest text = Digest.to_hex (Digest.string text) in
  let d1 = digest Dialegg.Prelude.source in
  let d2 = digest (Dialegg.Prelude.source ^ "\n(function extra_op (Op Type) Op :cost 1)") in
  checkb "Prelude.digest is the source's MD5" true (String.equal d1 Dialegg.Prelude.digest);
  let registry = Mlir.Dialect.fingerprint () in
  checkb "keys differ across preludes" false
    (String.equal
       (Dialegg.Verdict.key ~prelude:d1 ~registry src)
       (Dialegg.Verdict.key ~prelude:d2 ~registry src));
  checkb "hash_source is the key under the shipped prelude" true
    (String.equal (Dialegg.Verdict.hash_source src)
       (Dialegg.Verdict.key ~prelude:d1 ~registry src))

(* The audit report is memoized with the rest of the verdict: the first
   read computes it, a second hits the in-process table and returns the
   same report, and the computation leaves its disk entry. *)
let test_audit_cached_memoizes () =
  let open Dialegg.Verdict in
  let dir = Filename.temp_file "dialegg-audit-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  (* a source no other test reads, so the first read really computes *)
  let src = "; audit memoization probe\n" ^ Dialegg.Rules.const_fold in
  let v1, s1 = read ~cache_dir:dir ~tiers:[ Audit ] src in
  let v2, s2 = read ~cache_dir:dir ~tiers:[ Audit ] src in
  checkb "first read computes" true (s1 = [ (Audit, Computed) ]);
  checkb "second read hits the in-process memo" true (s2 = [ (Audit, Hit_memory) ]);
  checkb "same diags" true (v1.audit.Dialegg.Audit.a_diags = v2.audit.Dialegg.Audit.a_diags);
  checkb "disk entry written" true
    (Sys.file_exists (Filename.concat dir (hash_source src ^ ".verdict")))

(* ------------------------------------------------------------------ *)
(* One checked ruleset shared by the three tiers                       *)
(* ------------------------------------------------------------------ *)

(* The pipeline checks a ruleset once and runs lint, vet and audit, in
   that order, over the same value.  No pass may disturb what a later
   one reads: each report must equal the tier run alone on the text. *)
let test_shared_checked_ruleset () =
  let files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".egg")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  List.iter
    (fun path ->
      let src = read_file path in
      let c = Dialegg.Lint.check ~file:path src in
      let lint = Dialegg.Lint.lint_checked c in
      let vet = Dialegg.Vet.vet_checked c in
      let audit = Dialegg.Audit.audit_checked c in
      checkb (path ^ ": lint") true (lint = Dialegg.Lint.lint_rules ~file:path src);
      checkb (path ^ ": vet") true (vet = Dialegg.Vet.vet ~file:path src);
      checkb (path ^ ": audit") true (audit = Dialegg.Audit.audit ~file:path src))
    (files "fixtures" @ files "../rules")

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)
(* ------------------------------------------------------------------ *)

let test_pipeline_rejects_bad_encoding () =
  let m = simple_module () in
  let config =
    {
      Dialegg.Pipeline.default_config with
      rules = read_file "fixtures/costless_reachable.egg";
      (* the lint tier only warns about this ruleset; the audit tier must
         be the one that stops it *)
      vet = false;
    }
  in
  match Dialegg.Pipeline.optimize_module_report ~config m with
  | _ -> Alcotest.fail "expected the audit tier to reject the ruleset"
  | exception Dialegg.Pipeline.Error msg ->
    checkb (Fmt.str "error mentions the audit: %s" msg) true
      (contains_sub msg "encoding audit" && contains_sub msg "cost-unreachable")

let test_pipeline_no_audit_escape_hatch () =
  let m = simple_module () in
  (* --no-audit: the mis-priced ruleset reaches saturation; validation
     and verification are the dynamic backstops (validation off so the
     unregistered op's top facts don't fail the run) *)
  let config =
    {
      Dialegg.Pipeline.default_config with
      rules = read_file "fixtures/costless_reachable.egg";
      audit = false;
      validate = false;
      max_iterations = 4;
    }
  in
  let report = Dialegg.Pipeline.optimize_module_report ~config m in
  checkb "audit skipped" true (report.Dialegg.Pipeline.r_audit = None)

let test_pipeline_report_carries_audit () =
  let m = simple_module () in
  let config =
    { Dialegg.Pipeline.default_config with rules = Dialegg.Rules.const_fold }
  in
  let report = Dialegg.Pipeline.optimize_module_report ~config m in
  match report.Dialegg.Pipeline.r_audit with
  | Some (a, _) ->
    checkb "audit report covers the prelude constructors" true
      (List.length a.Dialegg.Audit.a_ops > 50)
  | None -> Alcotest.fail "expected an audit report in the pipeline report"

(* ------------------------------------------------------------------ *)
(* Property: an audit-clean configuration round-trips verifier-clean   *)
(* ------------------------------------------------------------------ *)

let test_audit_clean_roundtrip_prop () =
  let rules = Dialegg.Rules.const_fold ^ Dialegg.Rules.div_pow2 in
  let audit_report = Dialegg.Audit.audit rules in
  checkb
    (Fmt.str "ruleset is audit-clean: %s" (pp_diags audit_report.Dialegg.Audit.a_diags))
    false
    (Egglog.Diag.has_errors audit_report.Dialegg.Audit.a_diags);
  QCheck.Test.check_exn
    (QCheck.Test.make
       ~name:"audit-clean rules yield verifier-clean extractions"
       ~count:40
       (QCheck.make Test_support.Gen_mlir.program_gen)
       (fun p ->
         let m = Test_support.Gen_mlir.to_module p in
         let config =
           {
             Dialegg.Pipeline.default_config with
             rules;
             max_iterations = 8;
             max_nodes = 20_000;
             timeout = Some 10.0;
           }
         in
         ignore (Dialegg.Pipeline.optimize_module ~config m);
         (* eggify ∘ saturate ∘ extract ∘ deeggify must land back in
            verifier-clean IR: located Diag list is empty *)
         Mlir.Verifier.verify m = []))

(* ------------------------------------------------------------------ *)
(* Registry coupling (runs last: it registers a synthetic op)          *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_keys_the_hash () =
  let src = "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?y ?x ?t))" in
  let before = Dialegg.Verdict.hash_source src in
  (* registering a new op changes the registry fingerprint, so every
     cached verdict keyed on the old registry is invalidated *)
  Mlir.Dialect.def ~n_operands:1 ~n_results:1
    ~traits:[ Mlir.Dialect.Pure ] "zzztest.op";
  let after = Dialegg.Verdict.hash_source src in
  checkb "registry edits change the verdict key" false (String.equal before after)

(* Replacing an op's spec (not just adding a new op) must show: the
   cached fingerprint is dropped, and the prelude's share of the audit
   is rebuilt under the new registry. *)
let test_redefined_op_rebuilds_prelude_model () =
  let fp = Mlir.Dialect.fingerprint () in
  checkb "fingerprint is cached" true (fp == Mlir.Dialect.fingerprint ());
  ignore (Dialegg.Audit.audit "" : Dialegg.Audit.report);
  let builds = Dialegg.Audit.prelude_model_builds () in
  let orig = Option.get (Mlir.Dialect.find "arith.addi") in
  let restore () =
    Mlir.Dialect.def ?n_operands:orig.d_n_operands ?n_results:orig.d_n_results
      ~n_regions:orig.d_n_regions ~traits:orig.d_traits ~result_class:orig.d_result_class
      ~effects:orig.d_effects ?verify:orig.d_verify ?fold:orig.d_fold "arith.addi"
  in
  let arity_on_addi (r : Dialegg.Audit.report) =
    List.exists
      (fun d ->
        d.Egglog.Diag.code = "egg-arity-mismatch"
        && contains_sub d.Egglog.Diag.message "arith_addi")
      r.Dialegg.Audit.a_diags
  in
  Fun.protect ~finally:restore (fun () ->
      Mlir.Dialect.def ~n_operands:3 ~n_results:1 ~traits:orig.d_traits
        ~result_class:orig.d_result_class "arith.addi";
      checkb "fingerprint changes" false (String.equal fp (Mlir.Dialect.fingerprint ()));
      let r = Dialegg.Audit.audit "" in
      checkb (Fmt.str "egg-arity-mismatch on arith_addi in: %s" (pp_diags r.Dialegg.Audit.a_diags))
        true (arity_on_addi r);
      checkb "from a rebuilt prelude model" true
        (Dialegg.Audit.prelude_model_builds () = builds + 1));
  checkb "restored spec, restored fingerprint" true (String.equal fp (Mlir.Dialect.fingerprint ()));
  checkb "restored spec, no mismatch" false (arity_on_addi (Dialegg.Audit.audit ""))

let test_unencoded_op_warns () =
  (* an encoded dialect (arith) with a registered pure fixed-arity op
     that has no egg constructor: eggify would treat it opaquely *)
  Mlir.Dialect.def ~n_operands:2 ~n_results:1
    ~traits:[ Mlir.Dialect.Pure ]
    ~result_class:[ Mlir.Dialect.Int_like ] "arith.zzz_unencoded";
  let r = Dialegg.Audit.audit "" in
  assert_code "mlir-op-unencoded" r.Dialegg.Audit.a_diags;
  checkb "warning only" false (Egglog.Diag.has_errors r.Dialegg.Audit.a_diags)

let () =
  Alcotest.run "audit"
    [
      ( "coverage",
        [
          Alcotest.test_case "arity mismatch rejected" `Quick test_arity_mismatch_rejected;
          Alcotest.test_case "results mismatch rejected" `Quick
            test_results_mismatch_rejected;
          Alcotest.test_case "unknown op is a warning" `Quick test_unknown_op_is_warning;
        ] );
      ( "sorts",
        [
          Alcotest.test_case "sort mismatch rejected" `Quick test_sort_mismatch_rejected;
          Alcotest.test_case "sort match accepted" `Quick test_sort_match_accepted;
        ] );
      ( "cost totality",
        [
          Alcotest.test_case "costless reachable rejected" `Quick
            test_costless_reachable_rejected;
          Alcotest.test_case "costless unreachable accepted" `Quick
            test_costless_unreachable_accepted;
          Alcotest.test_case "cost rule satisfies totality" `Quick
            test_cost_rule_satisfies_totality;
        ] );
      ( "effects",
        [
          Alcotest.test_case "impure rule rejected" `Quick test_impure_rule_rejected;
          Alcotest.test_case "call-only effect exempt" `Quick test_call_effect_exempt;
        ] );
      ( "shipped",
        [ Alcotest.test_case "rules/*.egg audit clean" `Quick test_shipped_rules_clean ] );
      ( "cache",
        [
          Alcotest.test_case "audit_cached memoizes" `Quick test_audit_cached_memoizes;
          Alcotest.test_case "prelude keys the hash" `Quick test_prelude_keys_the_hash;
        ] );
      ( "shared",
        [
          Alcotest.test_case "one checked ruleset, three tiers" `Quick
            test_shared_checked_ruleset;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "rejects bad encoding" `Quick
            test_pipeline_rejects_bad_encoding;
          Alcotest.test_case "--no-audit escape hatch" `Quick
            test_pipeline_no_audit_escape_hatch;
          Alcotest.test_case "report carries audit" `Quick
            test_pipeline_report_carries_audit;
        ] );
      ( "property",
        [
          Alcotest.test_case "audit-clean round-trips verifier-clean" `Quick
            test_audit_clean_roundtrip_prop;
        ] );
      ( "registry",
        [
          Alcotest.test_case "fingerprint keys the hash" `Quick
            test_fingerprint_keys_the_hash;
          Alcotest.test_case "redefined op rebuilds the prelude model" `Quick
            test_redefined_op_rebuilds_prelude_model;
          Alcotest.test_case "unencoded op warns" `Quick test_unencoded_op_warns;
        ] );
    ]
