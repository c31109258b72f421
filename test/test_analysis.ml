(* Tests for the static analysis layer: the located s-expression reader,
   the Egglog sort-checker (lib/egglog/check.ml), the dialect-aware lints
   (lib/dialegg/lint.ml), the fixture corpus under test/fixtures/, and the
   lint integration in the pipeline.  Runs from _build/default/test, so
   fixtures/ and ../rules/ are reachable relative paths (declared as deps
   in test/dune). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let codes diags = List.map (fun d -> d.Egglog.Diag.code) diags
let errors diags = List.filter Egglog.Diag.is_error diags

let has_code c diags = List.exists (fun d -> d.Egglog.Diag.code = c) diags

let check_src src =
  let env = Dialegg.Lint.fresh_env () in
  Egglog.Check.check_program ~env src

let lint_src src = Dialegg.Lint.lint_rules src

let pp_diags diags = Fmt.str "%a" Egglog.Diag.pp_list diags

let assert_code ?(what = "diagnostic codes") c diags =
  checkb (Fmt.str "%s include %s in: %s" what c (pp_diags diags)) true (has_code c diags)

let assert_clean what diags =
  checks (Fmt.str "%s has no diagnostics" what) "" (pp_diags diags)

(* ------------------------------------------------------------------ *)
(* Located s-expressions                                               *)
(* ------------------------------------------------------------------ *)

let test_sexp_spans () =
  let src = "(foo bar\n  (baz 42))" in
  match Egglog.Sexp.parse_string_loc src with
  | [ { node = N_list [ foo; bar; inner ]; span } ] ->
    checki "top start line" 1 span.sp_start.line;
    checki "top start col" 1 span.sp_start.col;
    checki "top end line" 2 span.sp_end.line;
    checki "foo line" 1 foo.span.sp_start.line;
    checki "foo col" 2 foo.span.sp_start.col;
    checki "bar col" 6 bar.span.sp_start.col;
    checki "baz line" 2 inner.span.sp_start.line;
    checki "baz col" 3 inner.span.sp_start.col
  | _ -> Alcotest.fail "unexpected parse shape"

let test_sexp_strip_roundtrip () =
  let src = "(rewrite (f ?x) (g ?x \"s\" 1.5 -3))" in
  let located = Egglog.Sexp.parse_string_loc src in
  let plain = Egglog.Sexp.parse_string src in
  checkb "strip matches plain parse" true
    (List.map Egglog.Sexp.strip located = plain)

let test_sexp_parse_error_location () =
  match Egglog.Sexp.parse_string_loc "(f x\n  (g y)" with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Egglog.Sexp.Parse_error { line; _ } ->
    checkb "error on a real line" true (line >= 1)

let test_dummy_spans () =
  let loc = Egglog.Sexp.with_dummy_spans (Egglog.Sexp.Atom "x") in
  checkb "dummy span detected" true (Egglog.Sexp.is_dummy_span loc.Egglog.Sexp.span)

(* ------------------------------------------------------------------ *)
(* Sort checker: each diagnostic class                                 *)
(* ------------------------------------------------------------------ *)

let test_unknown_function () =
  let diags = check_src "(rewrite (arith_adi ?x ?y ?t) (arith_addi ?y ?x ?t))" in
  assert_code "unknown-function" diags;
  checkb "it is an error" true (Egglog.Diag.has_errors diags);
  (* the span points at the bad head symbol *)
  match List.find (fun d -> d.Egglog.Diag.code = "unknown-function") diags with
  | { Egglog.Diag.span = Some sp; _ } ->
    checki "line" 1 sp.sp_start.line;
    checki "col" 11 sp.sp_start.col
  | _ -> Alcotest.fail "unknown-function diagnostic has no span"

let test_arity_mismatch () =
  assert_code "arity-mismatch" (check_src "(rewrite (arith_addi ?x ?y) (arith_addi ?y ?x))")

let test_sort_mismatch () =
  assert_code "sort-mismatch"
    (check_src "(rewrite (arith_addi (StringAttr \"x\") ?y ?t) (arith_addi ?y ?y ?t))")

let test_unbound_rhs_var () =
  assert_code "unbound-var"
    (check_src "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?x ?z ?t))")

let test_wildcard_rhs () =
  assert_code "wildcard-rhs" (check_src "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?x _ ?t))")

let test_unknown_ruleset () =
  let diags =
    check_src "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?y ?x ?t) :ruleset opt)\n(run opt 4)"
  in
  assert_code "unknown-ruleset" diags;
  checki "both references flagged" 2
    (List.length (List.filter (fun d -> d.Egglog.Diag.code = "unknown-ruleset") diags))

let test_rebound_let () =
  assert_code "rebound-let" (check_src "(let a 1)\n(let a 2)")

(* a (pop) forgets the globals bound since its (push), as the interpreter
   does: a dump of several functions binds the same names in turn *)
let test_let_under_push_pop () =
  assert_clean "a let again after pop" (check_src "(push)\n(let a 1)\n(pop)\n(let a 2)");
  assert_code "rebound-let" (check_src "(let a 1)\n(push)\n(pop)\n(let a 2)");
  assert_code "rebound-let" (check_src "(push)\n(let a 1)\n(push)\n(pop)\n(let a 2)");
  assert_code "unknown-name" (check_src "(push)\n(let a 1)\n(pop)\n(let b a)");
  assert_code "pop-without-push" (check_src "(push)\n(pop)\n(pop)")

(* the open pushes live in the environment, as the REPL checks each line
   or file on its own against one env that it keeps *)
let test_push_pop_across_checks () =
  let env = Dialegg.Lint.fresh_env () in
  let check src = Egglog.Check.check_program ~env src in
  assert_clean "a push and a let" (check "(push)\n(let a 1)");
  let copy = Egglog.Check.copy_env env in
  assert_clean "a pop in the next check" (check "(pop)");
  assert_clean "a let again after that pop" (check "(let a 2)");
  assert_code "pop-without-push" (check "(pop)");
  assert_clean "a copy keeps the open push" (Egglog.Check.check_program ~env:copy "(pop)")

let test_unknown_name () =
  assert_code "unknown-name" (check_src "(let a (+ b 1))")

let test_unknown_sort () =
  assert_code "unknown-sort" (check_src "(function f (Widget) i64)")

let test_redeclared () =
  let diags = check_src "(function f (i64) i64)\n(function f (i64 i64) i64)" in
  assert_code "redeclared" diags

let test_benign_redeclaration () =
  (* identical redeclaration is how rules/prelude.egg coexists with the
     baked-in prelude: it must stay silent *)
  assert_clean "identical redeclaration"
    (check_src "(function my_f (i64) i64)\n(function my_f (i64) i64)")

let test_checker_never_raises () =
  let diags = check_src "(((" in
  assert_code "parse-error" diags

let test_locations_survive_multiline () =
  let src = ";; comment\n;; more\n(rewrite (arith_adi ?x ?y ?t)\n  (arith_addi ?y ?x ?t))" in
  match List.find_opt (fun d -> d.Egglog.Diag.code = "unknown-function") (check_src src) with
  | Some { Egglog.Diag.span = Some sp; _ } -> checki "line" 3 sp.sp_start.line
  | _ -> Alcotest.fail "expected a located unknown-function diagnostic"

(* ------------------------------------------------------------------ *)
(* Dialect lints                                                       *)
(* ------------------------------------------------------------------ *)

let test_dead_rule () =
  let diags =
    lint_src
      "(function my_key (Op) i64)\n\
       (rule ((= ?k (my_key ?x)) (= ?e (arith_addi ?x ?x ?t))) ((union ?e ?x)))"
  in
  (* my_key returns i64: the eggifier can't emit it, no translation hook
     synthesises it, and nothing ever populates the table — the rule is dead *)
  assert_code "dead-rule" diags

let test_well_formed_op_not_dead () =
  (* a well-formed user op constructor could be emitted by the eggifier for
     a matching MLIR op, so matching on it is not dead *)
  let diags =
    lint_src
      "(function my_op (Op Type) Op :cost 1)\n\
       (rewrite (my_op ?x ?t) (arith_addi ?x ?x ?t))"
  in
  checkb (Fmt.str "no dead-rule in: %s" (pp_diags diags)) false (has_code "dead-rule" diags)

let test_live_rule_not_flagged () =
  let diags =
    lint_src
      "(function my_op (Op Type) Op :cost 1)\n\
       (rewrite (arith_addi ?x ?x ?t) (my_op ?x ?t))\n\
       (rewrite (my_op ?x ?t)\n\
      \  (arith_muli ?x (arith_constant (NamedAttr \"value\" (IntegerAttr 2 ?t)) ?t) ?t))"
  in
  checkb (Fmt.str "no dead-rule in: %s" (pp_diags diags)) false (has_code "dead-rule" diags)

let test_op_no_cost () =
  assert_code "op-no-cost" (lint_src "(function my_op (Op Type) Op)")

let test_bad_op_constructor () =
  (* Type before Op violates the canonical operand order the eggifier
     emits, so this constructor can never match a translated function *)
  let diags = lint_src "(function weird_op (Type Op) Op :cost 1)" in
  assert_code "bad-op-constructor" diags;
  checkb "it is an error" true (Egglog.Diag.has_errors diags)

let test_expansion_no_cost () =
  let diags =
    lint_src
      "(function my_wrap (Op Type) Op)\n\
       (rewrite (arith_addi ?x ?y ?t) (my_wrap (arith_addi ?x ?y ?t) ?t))"
  in
  assert_code "expansion-no-cost" diags

let test_unstable_cost_unbound () =
  let diags =
    lint_src
      "(rule ((= ?e (arith_addi ?x ?y ?t)))\n\
      \      ((unstable-cost (arith_addi ?x ?y ?t) (nrows (type-of ?x)))))"
  in
  (* no (= _ (type-of ?x)) fact backs the lookup, so the cost expression
     may read a row count that saturation never computed *)
  assert_code "unstable-cost-unbound" diags

let test_unstable_cost_bound_ok () =
  let diags =
    lint_src
      "(rule ((= ?e (arith_addi ?x ?y ?t)) (= ?rt (type-of ?x)) (= ?n (nrows (type-of ?x))))\n\
      \      ((unstable-cost (arith_addi ?x ?y ?t) ?n)))"
  in
  checkb (Fmt.str "no unstable-cost-unbound in: %s" (pp_diags diags)) false
    (has_code "unstable-cost-unbound" diags)

(* ------------------------------------------------------------------ *)
(* Fixture corpus                                                      *)
(* ------------------------------------------------------------------ *)

let fixture name = "fixtures/" ^ name ^ ".egg"

let lint_path path =
  Dialegg.Lint.lint_rules ~file:path (In_channel.with_open_text path In_channel.input_all)

let test_fixture name expect_code expect_error () =
  let diags = lint_path (fixture name) in
  assert_code ~what:(fixture name) expect_code diags;
  checkb (Fmt.str "%s error status" name) expect_error (Egglog.Diag.has_errors diags);
  (* every fixture diagnostic is located and carries the file name *)
  List.iter
    (fun d ->
      checkb (Fmt.str "%s: diagnostic has a file" name) true (d.Egglog.Diag.file <> None))
    diags

(* ------------------------------------------------------------------ *)
(* The shipped rule files and workload rules lint clean                *)
(* ------------------------------------------------------------------ *)

let shipped_rules =
  [ "const_fold"; "div_pow2"; "fast_inv_sqrt"; "horner"; "matmul_assoc"; "prelude" ]

let test_shipped_rules_clean () =
  List.iter
    (fun name ->
      let path = "../rules/" ^ name ^ ".egg" in
      assert_clean path (lint_path path))
    shipped_rules

let test_workload_rules_clean () =
  List.iter
    (fun (b : Workloads.Benchmark.t) ->
      assert_clean ("workload " ^ b.name) (errors (lint_src b.rules)))
    Workloads.Suite.all

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)
(* ------------------------------------------------------------------ *)

let trivial_module () =
  Mlir.Parser.parse_module
    "module {\n\
    \  func.func @f(%a: i64) -> i64 {\n\
    \    %0 = arith.addi %a, %a : i64\n\
    \    func.return %0 : i64\n\
    \  }\n\
     }"

let test_pipeline_fails_fast () =
  let m = trivial_module () in
  let config =
    { Dialegg.Pipeline.default_config with
      rules = "(rewrite (arith_adi ?x ?y ?t) (arith_addi ?y ?x ?t))"
    }
  in
  match Dialegg.Pipeline.optimize_module ~config m with
  | _ -> Alcotest.fail "expected Pipeline.Error"
  | exception Dialegg.Pipeline.Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    checkb "mentions the failing code" true (contains msg "unknown-function")

let test_pipeline_lint_off_passthrough () =
  (* with lint disabled the unknown head is just an inert table, as before *)
  let m = trivial_module () in
  let config =
    { Dialegg.Pipeline.default_config with
      rules = "(function arith_adi (Op Op Type) Op :cost 1)";
      lint = false
    }
  in
  let _t = Dialegg.Pipeline.optimize_module ~config m in
  checkb "module still one addi" true
    (List.length (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.addi") m) = 1)

let test_pipeline_accepts_clean_rules () =
  let m = trivial_module () in
  let config =
    { Dialegg.Pipeline.default_config with
      rules = "(rewrite (arith_addi ?x ?y ?t) (arith_addi ?y ?x ?t))"
    }
  in
  let _t = Dialegg.Pipeline.optimize_module ~config m in
  checkb "optimized fine with lint on" true true

(* ------------------------------------------------------------------ *)
(* Diagnostic plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let test_diag_rendering () =
  let sp =
    { Egglog.Sexp.sp_start = { line = 3; col = 7 }; sp_end = { line = 3; col = 12 } }
  in
  let d = Egglog.Diag.error ~file:"r.egg" ~span:sp "unknown-function" "no such thing" in
  checks "render" "r.egg:3:7: error[unknown-function]: no such thing" (Egglog.Diag.to_string d)

let test_diag_dedup () =
  let d1 = Egglog.Diag.error "a" "x" in
  let d2 = Egglog.Diag.error "a" "x" in
  let d3 = Egglog.Diag.warning "b" "y" in
  checki "dedup" 2 (List.length (Egglog.Diag.dedup [ d1; d2; d3; d1 ]))

let test_diag_counts () =
  let diags = check_src "(rewrite (arith_adi ?x ?y ?t) (arith_addi ?y ?z ?t))" in
  checkb "errors and codes agree" true
    (Egglog.Diag.count_errors diags = List.length (errors diags));
  checkb "at least two defects" true (List.length (codes diags) >= 2)

(* ------------------------------------------------------------------ *)
(* Dataflow: the lattice solvers over mini-MLIR                        *)
(* ------------------------------------------------------------------ *)

module Df = Mlir.Dataflow

let parse_func src =
  let m = Mlir.Parser.parse_module src in
  List.find (fun o -> o.Mlir.Ir.op_name = "func.func") (Mlir.Ir.module_ops m)

let return_interval f =
  let facts = Df.Intervals.analyze f in
  match Df.Intervals.return_facts facts f with
  | [ itv ] -> itv
  | l -> Alcotest.fail (Fmt.str "expected one return fact, got %d" (List.length l))

let test_interval_straightline () =
  let itv =
    return_interval
      (parse_func
         "func.func @k() -> i64 {\n\
         \  %c10 = arith.constant 10 : i64\n\
         \  %c20 = arith.constant 20 : i64\n\
         \  %s = arith.addi %c10, %c20 : i64\n\
         \  func.return %s : i64\n\
          }")
  in
  checkb "exact 30" true (Df.Interval.exact itv = Some 30L)

let test_interval_if_join () =
  let itv =
    return_interval
      (parse_func
         "func.func @j(%c: i1) -> i64 {\n\
         \  %r = scf.if %c -> (i64) {\n\
         \    %a = arith.constant 1 : i64\n\
         \    scf.yield %a : i64\n\
         \  } else {\n\
         \    %b = arith.constant 5 : i64\n\
         \    scf.yield %b : i64\n\
         \  }\n\
         \  func.return %r : i64\n\
          }")
  in
  checkb "join of branches is [1,5]" true (Df.Interval.equal itv (Df.Interval.Range (1L, 5L)))

let test_interval_loop_sound () =
  (* sum 0..9 = 45: the loop fixpoint must cover the concrete result, and
     the induction variable gets the precise [0, 9] from lb/ub/step *)
  let f =
    parse_func
      "func.func @sum10() -> i64 {\n\
      \  %c0 = arith.constant 0 : index\n\
      \  %c10 = arith.constant 10 : index\n\
      \  %c1 = arith.constant 1 : index\n\
      \  %z = arith.constant 0 : i64\n\
      \  %r = scf.for %i = %c0 to %c10 step %c1 iter_args(%acc = %z) -> (i64) {\n\
      \    %iv = arith.index_cast %i : index to i64\n\
      \    %acc2 = arith.addi %acc, %iv : i64\n\
      \    scf.yield %acc2 : i64\n\
      \  }\n\
      \  func.return %r : i64\n\
       }"
  in
  let facts = Df.Intervals.analyze f in
  (match Df.Intervals.return_facts facts f with
  | [ itv ] -> checkb "contains the concrete sum 45" true (Df.Interval.contains itv 45L)
  | _ -> Alcotest.fail "one return fact expected");
  let cast = List.hd (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.index_cast") f) in
  checkb "induction variable is exactly [0, 9]" true
    (Df.Interval.equal (Df.Intervals.fact facts (Mlir.Ir.result1 cast))
       (Df.Interval.Range (0L, 9L)))

let test_known_bits_mask () =
  let f =
    parse_func
      "func.func @m(%a: i64) -> i64 {\n\
      \  %c15 = arith.constant 15 : i64\n\
      \  %r = arith.andi %a, %c15 : i64\n\
      \  func.return %r : i64\n\
       }"
  in
  let facts = Df.Bits.analyze f in
  match Df.Bits.return_facts facts f with
  | [ b ] ->
    let high = Int64.lognot 15L in
    checkb "bits above the mask known zero" true (Int64.logand b.Df.Known_bits.kz high = high);
    checkb "7 fits the mask" true (Df.Known_bits.contains b 7L);
    checkb "-1 contradicts the known zeros" false (Df.Known_bits.contains b (-1L))
  | _ -> Alcotest.fail "one return fact expected"

let test_known_bits_exact () =
  let f =
    parse_func
      "func.func @x() -> i64 {\n\
      \  %c12 = arith.constant 12 : i64\n\
      \  %c10 = arith.constant 10 : i64\n\
      \  %r = arith.xori %c12, %c10 : i64\n\
      \  func.return %r : i64\n\
       }"
  in
  let facts = Df.Bits.analyze f in
  match Df.Bits.return_facts facts f with
  | [ b ] -> checkb "12 xor 10 fully known" true (Df.Known_bits.exact b = Some 6L)
  | _ -> Alcotest.fail "one return fact expected"

let test_constantness () =
  let f =
    parse_func
      "func.func @c(%a: i64) -> i64 {\n\
      \  %c30 = arith.constant 30 : i64\n\
      \  %c20 = arith.constant 20 : i64\n\
      \  %p = arith.muli %c30, %c20 : i64\n\
      \  %q = arith.addi %p, %a : i64\n\
      \  func.return %q : i64\n\
       }"
  in
  let facts = Df.Constants.analyze f in
  let muli = List.hd (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.muli") f) in
  checkb "product is the constant 600" true
    (Df.Constants.fact facts (Mlir.Ir.result1 muli) = Df.Constness.Cint 600L);
  (match Df.Constants.return_facts facts f with
  | [ cv ] -> checkb "sum with an argument is top" true (cv = Df.Constness.Ctop)
  | _ -> Alcotest.fail "one return fact expected")

let mm_src =
  "func.func @mm(%a: tensor<2x3xf64>, %b: tensor<3x4xf64>, %c: tensor<5x3xf64>) \
   -> tensor<?x?xf64> {\n\
  \  %e = tensor.empty() : tensor<?x?xf64>\n\
  \  %r = linalg.matmul ins(%a, %b : tensor<2x3xf64>, tensor<3x4xf64>) \
   outs(%e : tensor<?x?xf64>) -> tensor<?x?xf64>\n\
  \  func.return %r : tensor<?x?xf64>\n\
   }"

let test_shape_matmul () =
  let f = parse_func mm_src in
  let facts = Df.Shapes.analyze f in
  match Df.Shapes.return_facts facts f with
  | [ sh ] ->
    checkb "matmul result is 2x4 despite the dynamic type" true
      (Df.Shape.equal sh (Df.Shape.Dims [ 2; 4 ]))
  | _ -> Alcotest.fail "one return fact expected"

let test_defuse_dead_ops () =
  let f =
    parse_func
      "func.func @d(%a: i64) -> i64 {\n\
      \  %u = arith.addi %a, %a : i64\n\
      \  %r = arith.muli %a, %a : i64\n\
      \  func.return %r : i64\n\
       }"
  in
  let du = Df.Defuse.of_op f in
  let addi = List.hd (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.addi") f) in
  let muli = List.hd (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.muli") f) in
  checkb "unused addi is dead" true (Df.Defuse.is_dead du (Mlir.Ir.result1 addi));
  checki "muli used once" 1 (Df.Defuse.n_uses du (Mlir.Ir.result1 muli));
  (match Df.Defuse.dead_ops f with
  | [ o ] -> checks "dead op is the addi" "arith.addi" o.Mlir.Ir.op_name
  | l -> Alcotest.fail (Fmt.str "expected exactly one dead op, got %d" (List.length l)))

(* ------------------------------------------------------------------ *)
(* Translation validator                                               *)
(* ------------------------------------------------------------------ *)

let const_ret_src name v ty =
  Fmt.str
    "func.func @%s() -> %s {\n\
    \  %%c = arith.constant %s : %s\n\
    \  func.return %%c : %s\n\
     }"
    name ty v ty ty

let test_validate_clean () =
  let f = parse_func (const_ret_src "same" "30" "i64") in
  assert_clean "identical function" (Dialegg.Validate.check (Dialegg.Validate.capture f) f)

let test_validate_type_changed () =
  let f1 = parse_func (const_ret_src "t" "1" "i64") in
  let f2 = parse_func (const_ret_src "t" "1" "i32") in
  let diags = Dialegg.Validate.check (Dialegg.Validate.capture f1) f2 in
  assert_code "type-changed" diags;
  checkb "it is an error" true (Egglog.Diag.has_errors diags)

let test_validate_range_widened () =
  let f1 = parse_func (const_ret_src "r" "30" "i64") in
  let f2 = parse_func (const_ret_src "r" "0" "i64") in
  let diags = Dialegg.Validate.check (Dialegg.Validate.capture f1) f2 in
  assert_code "range-widened" diags;
  (* the message names the offending result *)
  (match List.find_opt (fun d -> d.Egglog.Diag.code = "range-widened") diags with
  | Some d ->
    checkb "message names @r result 0" true
      (let msg = Egglog.Diag.to_string d in
       let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       contains msg "@r result 0")
  | None -> Alcotest.fail "no range-widened diagnostic")

let test_validate_shape_changed () =
  let f = parse_func mm_src in
  let snap = Dialegg.Validate.capture f in
  (* rewire the matmul to 5x3 @ 3x4: every value type is unchanged (the
     result stays tensor<?x?xf64>) but the inferred 5x4 shape contradicts
     the captured 2x4 *)
  let mm = List.hd (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "linalg.matmul") f) in
  let c_arg = (Mlir.Ir.func_body f).Mlir.Ir.blk_args.(2) in
  mm.Mlir.Ir.operands.(0) <- c_arg;
  let diags = Dialegg.Validate.check snap f in
  assert_code "shape-changed" diags

let test_validate_invalid_extraction () =
  let f = parse_func (const_ret_src "b" "1" "i64") in
  let snap = Dialegg.Validate.capture f in
  let blk = Mlir.Ir.func_body f in
  Mlir.Ir.set_ops blk (List.rev blk.Mlir.Ir.blk_ops);
  let diags = Dialegg.Validate.check snap f in
  assert_code "invalid-extraction" diags;
  checkb "broken body is an error" true (Egglog.Diag.has_errors diags);
  (* broken IR also surfaces through the input-side helper *)
  assert_code "invalid-input" (Dialegg.Validate.verify_diags ~code:"invalid-input" f)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let unsound_module () = Mlir.Parser.parse_module (read_file "fixtures/unsound_demo.mlir")
let unsound_rules () = read_file "fixtures/unsound_fold.egg"

let test_pipeline_validator_rejects () =
  let m = unsound_module () in
  let config = { Dialegg.Pipeline.default_config with rules = unsound_rules () } in
  match Dialegg.Pipeline.optimize_module ~config m with
  | _ -> Alcotest.fail "expected the validator to reject the unsound fold"
  | exception Dialegg.Pipeline.Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    checkb "names the code" true (contains msg "range-widened");
    checkb "names the function" true (contains msg "@fold_me")

let test_pipeline_no_validate_passthrough () =
  let m = unsound_module () in
  let config =
    { Dialegg.Pipeline.default_config with rules = unsound_rules (); validate = false }
  in
  ignore (Dialegg.Pipeline.optimize_module ~config m);
  (* without validation the unsound fold goes through: the addi is gone *)
  checki "addi folded away" 0
    (List.length (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.addi") m))

(* ------------------------------------------------------------------ *)
(* Cross-check: Egglog-side lo/hi tables vs the OCaml interval solver  *)
(* ------------------------------------------------------------------ *)

(* the lattice rules from examples/interval_analysis.ml (lo joins with
   max, hi with min, propagated through constants / addi / shrsi) *)
let interval_egg_rules =
  {|
(function lo (Op) i64 :merge (max old new))
(function hi (Op) i64 :merge (min old new))
(rule ((= ?e (arith_constant (NamedAttr "value" (IntegerAttr ?v ?t)) ?t)))
      ((set (lo ?e) ?v) (set (hi ?e) ?v)))
(rule ((= ?e (arith_addi ?x ?y ?t))
       (= ?xl (lo ?x)) (= ?xh (hi ?x))
       (= ?yl (lo ?y)) (= ?yh (hi ?y)))
      ((set (lo ?e) (+ ?xl ?yl)) (set (hi ?e) (+ ?xh ?yh))))
(rule ((= ?e (arith_shrsi ?x ?y ?t))
       (= ?xl (lo ?x)) (= ?xh (hi ?x))
       (= ?yl (lo ?y)) (>= ?yl 0))
      ((set (lo ?e) (>> ?xl ?yl)) (set (hi ?e) (>> ?xh ?yl))))
|}

let test_egg_ocaml_intervals_agree () =
  let func =
    parse_func
      "func.func @range_demo() -> i64 {\n\
      \  %c10 = arith.constant 10 : i64\n\
      \  %c20 = arith.constant 20 : i64\n\
      \  %c100 = arith.constant 100 : i64\n\
      \  %c2 = arith.constant 2 : i64\n\
      \  %small = arith.addi %c10, %c20 : i64\n\
      \  %shifted = arith.shrsi %c100, %c2 : i64\n\
      \  %sum = arith.addi %small, %shifted : i64\n\
      \  func.return %sum : i64\n\
       }"
  in
  let engine, eggify, _, _ =
    Dialegg.Pipeline.setup_function
      { Dialegg.Pipeline.default_config with rules = interval_egg_rules }
      func
  in
  ignore (Egglog.Interp.run engine 10);
  let eg = Egglog.Interp.egraph engine in
  let lo_f = Egglog.Egraph.find_func eg (Egglog.Symbol.intern "lo") in
  let hi_f = Egglog.Egraph.find_func eg (Egglog.Symbol.intern "hi") in
  let facts = Df.Intervals.analyze func in
  let checked = ref 0 in
  Mlir.Ir.walk_op
    (fun o ->
      if Array.length o.Mlir.Ir.results = 1 then begin
        let v = o.Mlir.Ir.results.(0) in
        match Hashtbl.find_opt eggify.Dialegg.Eggify.value_class v.Mlir.Ir.v_id with
        | None -> ()
        | Some cls ->
          let key = [| Egglog.Value.Eclass (Egglog.Egraph.find_class eg cls) |] in
          (match (Egglog.Egraph.lookup eg lo_f key, Egglog.Egraph.lookup eg hi_f key) with
          | Some (Egglog.Value.I64 el), Some (Egglog.Value.I64 eh) ->
            incr checked;
            (match Df.Intervals.fact facts v with
            | Df.Interval.Range (ol, oh) ->
              checkb
                (Fmt.str "OCaml [%Ld,%Ld] at least as tight as egg [%Ld,%Ld]" ol oh el eh)
                true
                (el <= ol && oh <= eh)
            | Df.Interval.Bot -> Alcotest.fail "OCaml fact is bottom for an egg-ranged value")
          | _ -> ())
      end)
    func;
  checkb (Fmt.str "cross-checked %d values (want >= 3)" !checked) true (!checked >= 3)

(* ------------------------------------------------------------------ *)
(* Randomized soundness: Interp values lie inside the computed facts   *)
(* ------------------------------------------------------------------ *)

let test_random_soundness () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:120 ~name:"interp values lie inside interval/known-bits facts"
       (QCheck.make
          QCheck.Gen.(
            Test_support.Gen_mlir.program_gen >>= fun p ->
            Test_support.Gen_mlir.args_gen p >>= fun args -> return (p, args)))
       (fun (p, args) ->
         let m, values = Test_support.Gen_mlir.to_module_values p in
         let func =
           List.find (fun o -> o.Mlir.Ir.op_name = "func.func") (Mlir.Ir.module_ops m)
         in
         let concrete = Test_support.Gen_mlir.eval_all p args in
         (* seed the entry arguments with the exact values we run with *)
         let arg_arr = Array.of_list args in
         let seed = Hashtbl.create 8 in
         List.iteri
           (fun i (v : Mlir.Ir.value) ->
             if i < p.Test_support.Gen_mlir.n_args then
               Hashtbl.replace seed v.Mlir.Ir.v_id arg_arr.(i))
           values;
         let iinit v =
           Option.map Df.Interval.of_const (Hashtbl.find_opt seed v.Mlir.Ir.v_id)
         in
         let binit v =
           Option.map
             (fun c -> { Df.Known_bits.kz = Int64.lognot c; Df.Known_bits.ko = c })
             (Hashtbl.find_opt seed v.Mlir.Ir.v_id)
         in
         let ifacts = Df.Intervals.analyze ~init:iinit func in
         let bfacts = Df.Bits.analyze ~init:binit func in
         List.iteri
           (fun i (v : Mlir.Ir.value) ->
             let c = concrete.(i) in
             let itv = Df.Intervals.fact ifacts v in
             if not (Df.Interval.contains itv c) then
               QCheck.Test.fail_reportf "value %d: interval %a excludes concrete %Ld" i
                 (fun ppf -> Df.Interval.pp ppf)
                 itv c;
             let b = Df.Bits.fact bfacts v in
             if not (Df.Known_bits.contains b c) then
               QCheck.Test.fail_reportf "value %d: known-bits %a exclude concrete %Ld" i
                 (fun ppf -> Df.Known_bits.pp ppf)
                 b c)
           values;
         (* and the facts really describe what Interp computes *)
         Test_support.Gen_mlir.run_module m args = concrete.(Array.length concrete - 1)))

let () =
  Alcotest.run "analysis"
    [
      ( "sexp-loc",
        [
          Alcotest.test_case "spans" `Quick test_sexp_spans;
          Alcotest.test_case "strip = plain parse" `Quick test_sexp_strip_roundtrip;
          Alcotest.test_case "parse error located" `Quick test_sexp_parse_error_location;
          Alcotest.test_case "dummy spans" `Quick test_dummy_spans;
        ] );
      ( "check",
        [
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "sort mismatch" `Quick test_sort_mismatch;
          Alcotest.test_case "unbound RHS var" `Quick test_unbound_rhs_var;
          Alcotest.test_case "wildcard on RHS" `Quick test_wildcard_rhs;
          Alcotest.test_case "unknown ruleset" `Quick test_unknown_ruleset;
          Alcotest.test_case "rebound let" `Quick test_rebound_let;
          Alcotest.test_case "let under push/pop" `Quick test_let_under_push_pop;
          Alcotest.test_case "push/pop across checks" `Quick test_push_pop_across_checks;
          Alcotest.test_case "unknown name" `Quick test_unknown_name;
          Alcotest.test_case "unknown sort" `Quick test_unknown_sort;
          Alcotest.test_case "conflicting redeclaration" `Quick test_redeclared;
          Alcotest.test_case "benign redeclaration" `Quick test_benign_redeclaration;
          Alcotest.test_case "never raises" `Quick test_checker_never_raises;
          Alcotest.test_case "multiline locations" `Quick test_locations_survive_multiline;
        ] );
      ( "lint",
        [
          Alcotest.test_case "dead rule" `Quick test_dead_rule;
          Alcotest.test_case "well-formed op not dead" `Quick test_well_formed_op_not_dead;
          Alcotest.test_case "live rule not flagged" `Quick test_live_rule_not_flagged;
          Alcotest.test_case "op without cost" `Quick test_op_no_cost;
          Alcotest.test_case "bad op constructor" `Quick test_bad_op_constructor;
          Alcotest.test_case "expansion without cost" `Quick test_expansion_no_cost;
          Alcotest.test_case "unstable-cost unbound" `Quick test_unstable_cost_unbound;
          Alcotest.test_case "unstable-cost bound ok" `Quick test_unstable_cost_bound_ok;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "unknown constructor" `Quick
            (test_fixture "unknown_constructor" "unknown-function" true);
          Alcotest.test_case "arity mismatch" `Quick
            (test_fixture "arity_mismatch" "arity-mismatch" true);
          Alcotest.test_case "unbound RHS var" `Quick
            (test_fixture "unbound_rhs" "unbound-var" true);
          Alcotest.test_case "undeclared ruleset" `Quick
            (test_fixture "undeclared_ruleset" "unknown-ruleset" true);
          Alcotest.test_case "sort mismatch" `Quick
            (test_fixture "sort_mismatch" "sort-mismatch" true);
          Alcotest.test_case "expansion without cost" `Quick
            (test_fixture "expansion_no_cost" "expansion-no-cost" false);
        ] );
      ( "corpus",
        [
          Alcotest.test_case "shipped rules lint clean" `Quick test_shipped_rules_clean;
          Alcotest.test_case "workload rules lint clean" `Quick test_workload_rules_clean;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "lint errors fail fast" `Quick test_pipeline_fails_fast;
          Alcotest.test_case "lint off passes through" `Quick test_pipeline_lint_off_passthrough;
          Alcotest.test_case "clean rules accepted" `Quick test_pipeline_accepts_clean_rules;
        ] );
      ( "diag",
        [
          Alcotest.test_case "rendering" `Quick test_diag_rendering;
          Alcotest.test_case "dedup" `Quick test_diag_dedup;
          Alcotest.test_case "counts" `Quick test_diag_counts;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "intervals: straight line" `Quick test_interval_straightline;
          Alcotest.test_case "intervals: scf.if join" `Quick test_interval_if_join;
          Alcotest.test_case "intervals: scf.for sound" `Quick test_interval_loop_sound;
          Alcotest.test_case "known bits: and mask" `Quick test_known_bits_mask;
          Alcotest.test_case "known bits: exact fold" `Quick test_known_bits_exact;
          Alcotest.test_case "constantness" `Quick test_constantness;
          Alcotest.test_case "shapes: matmul" `Quick test_shape_matmul;
          Alcotest.test_case "def-use and dead ops" `Quick test_defuse_dead_ops;
        ] );
      ( "validate",
        [
          Alcotest.test_case "identical function is clean" `Quick test_validate_clean;
          Alcotest.test_case "type-changed" `Quick test_validate_type_changed;
          Alcotest.test_case "range-widened" `Quick test_validate_range_widened;
          Alcotest.test_case "shape-changed" `Quick test_validate_shape_changed;
          Alcotest.test_case "invalid-extraction" `Quick test_validate_invalid_extraction;
          Alcotest.test_case "pipeline rejects unsound fold" `Quick
            test_pipeline_validator_rejects;
          Alcotest.test_case "--no-validate passthrough" `Quick
            test_pipeline_no_validate_passthrough;
        ] );
      ( "xcheck",
        [
          Alcotest.test_case "egg lo/hi vs OCaml intervals" `Quick
            test_egg_ocaml_intervals_agree;
        ] );
      ( "soundness",
        [ Alcotest.test_case "random programs" `Slow test_random_soundness ]);
    ]
