(* Tests for the DialEgg core: type/attribute translation, the preparation
   phase (signatures), eggify/de-eggify round trips, opaque handling,
   custom hooks, and end-to-end reproductions of every §7 case study. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let default_cfg rules = { Dialegg.Pipeline.default_config with rules }

let optimize ?(config = Dialegg.Pipeline.default_config) src =
  let m = Mlir.Parser.parse_module src in
  Mlir.Verifier.verify_exn m;
  let t = Dialegg.Pipeline.optimize_module ~config m in
  (m, t)

let count_op name m =
  List.length (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = name) m)

(* ------------------------------------------------------------------ *)
(* Type / attribute translation round trips                            *)
(* ------------------------------------------------------------------ *)

(* evaluate a type/attr expr in a prelude-initialized engine, extract it
   back, and compare *)
let engine_with_prelude () =
  let t = Egglog.Interp.create () in
  Egglog.Interp.run_commands t (Lazy.force Dialegg.Prelude.commands);
  t

let roundtrip_type (ty : Mlir.Typ.t) : Mlir.Typ.t =
  let t = engine_with_prelude () in
  let e = Dialegg.Translate.expr_of_type ty in
  let v = Dialegg.Pipeline.default_config |> fun _ -> Egglog.Interp.eval t e in
  let term, _ = Egglog.Extract.extract (Egglog.Interp.egraph t) v in
  Dialegg.Translate.type_of_term term

let test_type_roundtrip () =
  List.iter
    (fun ty -> checkb (Mlir.Typ.to_string ty) true (Mlir.Typ.equal ty (roundtrip_type ty)))
    [
      Mlir.Typ.i1;
      Mlir.Typ.i32;
      Mlir.Typ.Integer 7;
      Mlir.Typ.f32;
      Mlir.Typ.index;
      Mlir.Typ.None_type;
      Mlir.Typ.Ranked_tensor ([ 2; 3 ], Mlir.Typ.i64);
      Mlir.Typ.Ranked_tensor ([], Mlir.Typ.f32);
      Mlir.Typ.Unranked_tensor Mlir.Typ.f64;
      Mlir.Typ.Memref ([ 4; 4 ], Mlir.Typ.f32);
      Mlir.Typ.Complex Mlir.Typ.f64;
      Mlir.Typ.Tuple [ Mlir.Typ.i1; Mlir.Typ.f32 ];
      Mlir.Typ.Function ([ Mlir.Typ.f32 ], [ Mlir.Typ.f32 ]);
    ]

let test_type_roundtrip_prop () =
  (* random types via the dialegg-independent generator in gen_mlir is in
     the mlir test binary; here we use a local quick generator *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"type translation roundtrip" ~count:100
       (QCheck.make
          QCheck.Gen.(
            let scalar =
              oneofl [ Mlir.Typ.i1; Mlir.Typ.i8; Mlir.Typ.i64; Mlir.Typ.f32; Mlir.Typ.f64 ]
            in
            oneof
              [
                scalar;
                (let* dims = list_size (int_range 0 3) (int_range 1 10) in
                 let* e = scalar in
                 return (Mlir.Typ.Ranked_tensor (dims, e)));
                map (fun e -> Mlir.Typ.Complex e) scalar;
                (let* ts = list_size (int_range 1 3) scalar in
                 return (Mlir.Typ.Tuple ts));
              ]))
       (fun ty -> Mlir.Typ.equal ty (roundtrip_type ty)))

let roundtrip_attr (a : Mlir.Attr.t) : Mlir.Attr.t =
  let t = engine_with_prelude () in
  let e = Dialegg.Translate.expr_of_attr a in
  let v = Egglog.Interp.eval t e in
  let term, _ = Egglog.Extract.extract (Egglog.Interp.egraph t) v in
  Dialegg.Translate.attr_of_term term

let test_attr_roundtrip () =
  List.iter
    (fun a -> checkb (Mlir.Attr.to_string a) true (Mlir.Attr.equal a (roundtrip_attr a)))
    [
      Mlir.Attr.Int (42L, Mlir.Typ.i64);
      Mlir.Attr.Int (-3L, Mlir.Typ.i8);
      Mlir.Attr.Float (2.5, Mlir.Typ.f32);
      Mlir.Attr.String "hello world";
      Mlir.Attr.Bool true;
      Mlir.Attr.Symbol_ref "callee";
      Mlir.Attr.Unit;
      Mlir.Attr.Type (Mlir.Typ.Ranked_tensor ([ 2 ], Mlir.Typ.f64));
      Mlir.Attr.Array [ Mlir.Attr.Int (1L, Mlir.Typ.i64); Mlir.Attr.String "x" ];
      Mlir.Attr.Fastmath Mlir.Attr.Fm_none;
      Mlir.Attr.Fastmath Mlir.Attr.Fm_fast;
      Mlir.Attr.Fastmath (Mlir.Attr.Fm_flags [ "nnan" ]);
    ]

(* ------------------------------------------------------------------ *)
(* Signatures (preparation phase)                                      *)
(* ------------------------------------------------------------------ *)

let test_sigs_scan () =
  let t = engine_with_prelude () in
  let sigs = Dialegg.Sigs.scan (Egglog.Interp.egraph t) in
  (match Dialegg.Sigs.find_egg sigs "arith_addi" with
  | Some s ->
    checks "mlir name" "arith.addi" s.Dialegg.Sigs.mlir_name;
    checki "operands" 2 s.Dialegg.Sigs.n_operands;
    checki "attrs" 0 s.Dialegg.Sigs.n_attrs;
    checkb "typed" true s.Dialegg.Sigs.has_type
  | None -> Alcotest.fail "arith_addi not registered");
  (match Dialegg.Sigs.find_egg sigs "func_call_3" with
  | Some s ->
    checks "variadic name" "func.call" s.Dialegg.Sigs.mlir_name;
    checki "variadic operands" 3 s.Dialegg.Sigs.n_operands;
    checki "variadic attrs" 1 s.Dialegg.Sigs.n_attrs
  | None -> Alcotest.fail "func_call_3 not registered");
  (match Dialegg.Sigs.find_egg sigs "scf_if" with
  | Some s ->
    checki "regions" 2 s.Dialegg.Sigs.n_regions;
    checki "if operands" 1 s.Dialegg.Sigs.n_operands
  | None -> Alcotest.fail "scf_if not registered");
  (* lookup by MLIR name + arities *)
  (match Dialegg.Sigs.find_mlir sigs ~name:"func.return" ~n_operands:1 ~n_results:0 with
  | Some s -> checks "return variant" "func_return_1" s.Dialegg.Sigs.egg_name
  | None -> Alcotest.fail "func.return/1 lookup failed");
  checkb "no match for wrong arity" true
    (Dialegg.Sigs.find_mlir sigs ~name:"arith.addi" ~n_operands:3 ~n_results:1 = None)

let test_sigs_rejects_bad_order () =
  let t = Egglog.Interp.create () in
  Egglog.Interp.run_string t
    "(sort Type)(sort Op)(sort AttrPair)(function bad_op (AttrPair Op Type) Op)";
  match Dialegg.Sigs.scan (Egglog.Interp.egraph t) with
  | exception Dialegg.Sigs.Error _ -> ()
  | _ -> Alcotest.fail "operand-after-attr declaration must be rejected"

let test_variadic_suffix_parse () =
  checkb "strip" true (Dialegg.Sigs.split_variadic "func_call_3" = ("func_call", Some 3));
  checkb "no suffix" true (Dialegg.Sigs.split_variadic "arith_addi" = ("arith_addi", None));
  checks "name map" "tensor.from_elements" (Dialegg.Sigs.mlir_name_of_egg "tensor_from_elements_2")

(* ------------------------------------------------------------------ *)
(* Round trip without rules (identity)                                 *)
(* ------------------------------------------------------------------ *)

let identity_roundtrip src =
  let m = Mlir.Parser.parse_module src in
  Mlir.Verifier.verify_exn m;
  let before = Mlir.Printer.module_to_string m in
  let _ = Dialegg.Pipeline.optimize_module m in
  Mlir.Verifier.verify_exn m;
  (before, Mlir.Printer.module_to_string m, m)

let test_identity_scalar () =
  let before, after, _ =
    identity_roundtrip
      {|
func.func @f(%x: i64, %y: i64) -> i64 {
  %a = arith.addi %x, %y : i64
  %b = arith.muli %a, %x : i64
  func.return %b : i64
}|}
  in
  checks "unchanged" before after

let test_identity_regions () =
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%n: index, %t: tensor<8xf64>) -> f64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %z = arith.constant 0.0 : f64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %z) -> (f64) {
    %v = tensor.extract %t[%i] : tensor<8xf64>
    %acc2 = arith.addf %acc, %v : f64
    scf.yield %acc2 : f64
  }
  func.return %r : f64
}|}
  in
  checki "loop survives" 1 (count_op "scf.for" m);
  (* semantics preserved *)
  let t = Mlir.Interp.Rt { shape = [| 8 |]; data = Mlir.Interp.Df (Array.init 8 float_of_int) } in
  let r = Mlir.Interp.run m "f" [ Mlir.Interp.Ri (8L, 64); t ] in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rf (28.0, _) ] -> ()
  | [ v ] -> Alcotest.fail (Fmt.str "wrong sum: %a" Mlir.Interp.pp_rv v)
  | _ -> Alcotest.fail "arity"

let test_identity_if () =
  let _, _, m =
    identity_roundtrip
      {|
func.func @sqrt_abs(%x: f32) -> f32 {
  %zero = arith.constant 0.0 : f32
  %cond = arith.cmpf oge, %x, %zero : f32
  %sqrt = scf.if %cond -> (f32) {
    %s = math.sqrt %x fastmath<fast> : f32
    scf.yield %s : f32
  } else {
    %neg = arith.negf %x : f32
    %s = math.sqrt %neg : f32
    scf.yield %s : f32
  }
  func.return %sqrt : f32
}|}
  in
  checki "if survives" 1 (count_op "scf.if" m);
  let r = Mlir.Interp.run m "sqrt_abs" [ Mlir.Interp.Rf (-16.0, Mlir.Typ.F32) ] in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rf (4.0, _) ] -> ()
  | _ -> Alcotest.fail "sqrt_abs(-16) should be 4"

let test_identity_dedupes () =
  (* two syntactically identical pure ops land in one e-class and come back
     as a single SSA definition (hash-consing as CSE) *)
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%x: i64) -> i64 {
  %a = arith.muli %x, %x : i64
  %b = arith.muli %x, %x : i64
  %c = arith.addi %a, %b : i64
  func.return %c : i64
}|}
  in
  checki "duplicate multiply merged" 1 (count_op "arith.muli" m)

(* 0.0 and -0.0 are different constants: x + 0.0 and x + -0.0 differ at
   x = -0.0, so the e-graph must not merge them, with or without rules,
   and both must survive extraction, de-eggify and printing *)
let test_signed_zero_kept () =
  let src = In_channel.with_open_text "fixtures/signed_zero.mlir" In_channel.input_all in
  let run text =
    let m = Mlir.Parser.parse_module text in
    let r = Mlir.Interp.run m "f" [ Mlir.Interp.Rf (-0.0, Mlir.Typ.F64) ] in
    List.map
      (function
        | Mlir.Interp.Rf (x, _) -> Int64.bits_of_float x
        | v -> Alcotest.fail (Fmt.str "expected an f64, got %a" Mlir.Interp.pp_rv v))
      r.Mlir.Interp.values
  in
  let expected = run src in
  checkb "input returns 0 and -0" true
    (expected = [ Int64.bits_of_float 0.0; Int64.bits_of_float (-0.0) ]);
  List.iter
    (fun rules ->
      let out, _ = Dialegg.Pipeline.optimize_source ~config:(default_cfg rules) src in
      checkb "both constants printed" true
        (count_op "arith.constant" (Mlir.Parser.parse_module out) = 2);
      checkb "output agrees bitwise on -0.0" true (run out = expected))
    [ ""; In_channel.with_open_text "../rules/const_fold.egg" In_channel.input_all ]

let test_identity_drops_dead_code () =
  (* extraction from the return anchor performs DCE *)
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%x: i64) -> i64 {
  %dead = arith.addi %x, %x : i64
  func.return %x : i64
}|}
  in
  checki "dead op dropped" 0 (count_op "arith.addi" m)

(* ------------------------------------------------------------------ *)
(* Opaque handling                                                     *)
(* ------------------------------------------------------------------ *)

let test_opaque_survives () =
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%x: i64) -> i64 {
  %a = arith.addi %x, %x : i64
  %r = "mystery.op"(%a) : (i64) -> i64
  %b = arith.muli %r, %x : i64
  func.return %b : i64
}|}
  in
  checki "opaque op survives" 1 (count_op "mystery.op" m);
  Mlir.Verifier.verify_exn m

let test_opaque_operands_rewritten () =
  (* the opaque op's operand is itself subject to optimization *)
  let config = default_cfg Dialegg.Rules.const_fold in
  let m, _ =
    optimize ~config
      {|
func.func @f() -> i64 {
  %c1 = arith.constant 1 : i64
  %c2 = arith.constant 2 : i64
  %s = arith.addi %c1, %c2 : i64
  %r = "mystery.op"(%s) : (i64) -> i64
  func.return %r : i64
}|}
  in
  checki "opaque survives" 1 (count_op "mystery.op" m);
  checki "operand folded" 0 (count_op "arith.addi" m);
  let consts = Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.constant") m in
  checkb "folded constant feeds the opaque op" true
    (List.exists
       (fun c -> Mlir.Ir.attr c "value" = Some (Mlir.Attr.Int (3L, Mlir.Typ.i64)))
       consts)

let test_opaque_zero_result_anchor () =
  (* zero-result unregistered ops are anchors: kept, in order *)
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%x: i64) -> i64 {
  "effects.store"(%x) : (i64) -> ()
  %a = arith.addi %x, %x : i64
  "effects.store"(%a) : (i64) -> ()
  func.return %a : i64
}|}
  in
  checki "both stores kept" 2 (count_op "effects.store" m);
  Mlir.Verifier.verify_exn m

let test_opaque_with_region () =
  (* an unregistered op with a region keeps its region contents *)
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%x: i64) -> i64 {
  %r = "weird.loop"(%x) ({
    ^bb(%a: i64):
    %y = arith.addi %a, %a : i64
  }) : (i64) -> i64
  func.return %r : i64
}|}
  in
  checki "region op survives" 1 (count_op "weird.loop" m);
  checki "region body intact" 1 (count_op "arith.addi" m)

let test_multi_result_opaque () =
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%x: i64) -> i64 {
  %a, %b = "multi.results"(%x) : (i64) -> (i64, i64)
  %s = arith.addi %a, %b : i64
  func.return %s : i64
}|}
  in
  checki "multi-result op survives" 1 (count_op "multi.results" m);
  Mlir.Verifier.verify_exn m

(* ------------------------------------------------------------------ *)
(* Paper §7 case studies                                               *)
(* ------------------------------------------------------------------ *)

let test_case_const_fold () =
  let m, _ =
    optimize ~config:(default_cfg Dialegg.Rules.const_fold)
      {|
func.func @fold() -> i32 {
  %c2 = arith.constant 2 : i32
  %c3 = arith.constant 3 : i32
  %sum = arith.addi %c2, %c3 : i32
  func.return %sum : i32
}|}
  in
  checki "no addi left" 0 (count_op "arith.addi" m);
  let consts = Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.constant") m in
  checki "single constant" 1 (List.length consts);
  checkb "value 5" true
    (Mlir.Ir.attr (List.hd consts) "value" = Some (Mlir.Attr.Int (5L, Mlir.Typ.i32)))

let test_case_div_pow2 () =
  let m, _ =
    optimize ~config:(default_cfg Dialegg.Rules.div_pow2)
      {|
func.func @divs(%x: i64) -> i64 {
  %c256 = arith.constant 256 : i64
  %r = arith.divsi %x, %c256 : i64
  func.return %r : i64
}|}
  in
  checki "no division" 0 (count_op "arith.divsi" m);
  checki "one shift" 1 (count_op "arith.shrsi" m);
  let consts = Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.constant") m in
  checkb "shift amount 8" true
    (List.exists
       (fun c -> Mlir.Ir.attr c "value" = Some (Mlir.Attr.Int (8L, Mlir.Typ.i64)))
       consts);
  (* semantics *)
  let r = Mlir.Interp.run m "divs" [ Mlir.Interp.Ri (51200L, 64) ] in
  checkb "divides" true (r.Mlir.Interp.values = [ Mlir.Interp.Ri (200L, 64) ])

let test_case_div_pow2_negative () =
  (* divisor 100: not a power of two, must stay a division *)
  let m, _ =
    optimize ~config:(default_cfg Dialegg.Rules.div_pow2)
      {|
func.func @divs(%x: i64) -> i64 {
  %c100 = arith.constant 100 : i64
  %r = arith.divsi %x, %c100 : i64
  func.return %r : i64
}|}
  in
  checki "division stays" 1 (count_op "arith.divsi" m);
  checki "no shift" 0 (count_op "arith.shrsi" m)

let test_case_fast_inv_sqrt () =
  let m, _ =
    optimize ~config:(default_cfg Dialegg.Rules.fast_inv_sqrt)
      {|
func.func @inv_dist(%x: f32) -> f32 {
  %c1 = arith.constant 1.0 : f32
  %dist = math.sqrt %x fastmath<fast> : f32
  %inv = arith.divf %c1, %dist fastmath<fast> : f32
  func.return %inv : f32
}|}
  in
  checki "sqrt gone" 0 (count_op "math.sqrt" m);
  checki "divf gone" 0 (count_op "arith.divf" m);
  let calls = Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "func.call") m in
  checki "one call" 1 (List.length calls);
  checkb "to fast_inv_sqrt" true
    (Mlir.Ir.attr (List.hd calls) "callee" = Some (Mlir.Attr.Symbol_ref "fast_inv_sqrt"))

let test_case_fast_inv_sqrt_requires_fastmath () =
  (* without fastmath<fast> the rule must NOT fire (attribute matching) *)
  let m, _ =
    optimize ~config:(default_cfg Dialegg.Rules.fast_inv_sqrt)
      {|
func.func @inv_dist(%x: f32) -> f32 {
  %c1 = arith.constant 1.0 : f32
  %dist = math.sqrt %x : f32
  %inv = arith.divf %c1, %dist : f32
  func.return %inv : f32
}|}
  in
  checki "sqrt kept" 1 (count_op "math.sqrt" m);
  checki "no call introduced" 0 (count_op "func.call" m)

let mm2_src =
  {|
func.func @mm2(%A: tensor<100x10xf64>, %B: tensor<10x150xf64>, %C: tensor<150x8xf64>) -> tensor<100x8xf64> {
  %e1 = tensor.empty() : tensor<100x150xf64>
  %AB = linalg.matmul ins(%A, %B : tensor<100x10xf64>, tensor<10x150xf64>) outs(%e1 : tensor<100x150xf64>) -> tensor<100x150xf64>
  %e2 = tensor.empty() : tensor<100x8xf64>
  %ABC = linalg.matmul ins(%AB, %C : tensor<100x150xf64>, tensor<150x8xf64>) outs(%e2 : tensor<100x8xf64>) -> tensor<100x8xf64>
  func.return %ABC : tensor<100x8xf64>
}|}

let test_case_matmul_assoc () =
  (* §7.4: 270,000 multiplications become 20,000 *)
  let m, t = optimize ~config:(default_cfg Dialegg.Rules.matmul_assoc) mm2_src in
  let mults =
    List.fold_left
      (fun acc o ->
        match
          ( Mlir.Typ.shape o.Mlir.Ir.operands.(0).Mlir.Ir.v_type,
            Mlir.Typ.shape o.Mlir.Ir.operands.(1).Mlir.Ir.v_type )
        with
        | Some [ a; b ], Some [ _; c ] -> acc + (a * b * c)
        | _ -> acc)
      0
      (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "linalg.matmul") m)
  in
  checki "20000 scalar multiplications" 20_000 mults;
  checkb "cost model drove extraction" true (t.Dialegg.Pipeline.extracted_cost >= 20_000)

let test_case_horner () =
  let m, _ =
    optimize
      ~config:{ (default_cfg Dialegg.Rules.horner) with max_iterations = 12; max_nodes = 50_000 }
      {|
func.func @poly(%x: f64, %a: f64, %b: f64, %c: f64) -> f64 {
  %c2 = arith.constant 2.0 : f64
  %x2 = math.powf %x, %c2 : f64
  %t1 = arith.mulf %b, %x : f64
  %t2 = arith.mulf %a, %x2 : f64
  %t3 = arith.addf %t1, %t2 : f64
  %t4 = arith.addf %c, %t3 : f64
  func.return %t4 : f64
}|}
  in
  checki "powf eliminated" 0 (count_op "math.powf" m);
  checki "two multiplies (Horner)" 2 (count_op "arith.mulf" m);
  checki "two adds" 2 (count_op "arith.addf" m);
  (* semantics at a sample point: 3 + 5x + 7x^2 at x = 2 -> 41 *)
  let r =
    Mlir.Interp.run m "poly"
      [
        Mlir.Interp.Rf (2.0, Mlir.Typ.F64);
        Mlir.Interp.Rf (7.0, Mlir.Typ.F64);
        Mlir.Interp.Rf (5.0, Mlir.Typ.F64);
        Mlir.Interp.Rf (3.0, Mlir.Typ.F64);
      ]
  in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rf (41.0, _) ] -> ()
  | [ v ] -> Alcotest.fail (Fmt.str "wrong value %a" Mlir.Interp.pp_rv v)
  | _ -> Alcotest.fail "arity"

let test_rewrite_inside_region () =
  let m, _ =
    optimize ~config:(default_cfg Dialegg.Rules.div_pow2)
      {|
func.func @loopdiv(%n: index, %t: tensor<64xi64>) -> tensor<64xi64> {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %c256 = arith.constant 256 : i64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %t) -> (tensor<64xi64>) {
    %v = tensor.extract %acc[%i] : tensor<64xi64>
    %d = arith.divsi %v, %c256 : i64
    %acc2 = tensor.insert %d into %acc[%i] : tensor<64xi64>
    scf.yield %acc2 : tensor<64xi64>
  }
  func.return %r : tensor<64xi64>
}|}
  in
  checki "division inside loop rewritten" 0 (count_op "arith.divsi" m);
  checki "shift inside loop" 1 (count_op "arith.shrsi" m);
  checki "loop structure intact" 1 (count_op "scf.for" m);
  (* execute *)
  let data = Array.init 64 (fun i -> Int64.of_int (i * 1000)) in
  let r =
    Mlir.Interp.run m "loopdiv"
      [ Mlir.Interp.Ri (64L, 64); Mlir.Interp.Rt { shape = [| 64 |]; data = Mlir.Interp.Di data } ]
  in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rt { data = Mlir.Interp.Di out; _ } ] ->
    Array.iteri
      (fun i v ->
        if not (Int64.equal v (Int64.div (Int64.of_int (i * 1000)) 256L)) then
          Alcotest.fail "wrong loop result")
      out
  | _ -> Alcotest.fail "unexpected result"

let test_memref_loop_pipeline () =
  (* side-effecting memref stores inside a registered scf.for: the stores
     are opaque anchors inside the region; the arithmetic around them still
     gets optimized (div -> shift), and execution stays correct *)
  let m, _ =
    optimize ~config:(default_cfg Dialegg.Rules.div_pow2)
      {|
func.func @scale_into(%n: index, %src: memref<32xi64>, %dst: memref<32xi64>) {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %c64 = arith.constant 64 : i64
  scf.for %i = %c0 to %n step %c1 {
    %v = memref.load %src[%i] : memref<32xi64>
    %d = arith.divsi %v, %c64 : i64
    memref.store %d, %dst[%i] : memref<32xi64>
  }
  func.return
}|}
  in
  checki "loop kept" 1 (count_op "scf.for" m);
  checki "stores kept" 1 (count_op "memref.store" m);
  checki "loads kept" 1 (count_op "memref.load" m);
  checki "division rewritten" 0 (count_op "arith.divsi" m);
  checki "shift present" 1 (count_op "arith.shrsi" m);
  (* execute: dst[i] = src[i] / 64 *)
  let mk data = Mlir.Interp.Rt { shape = [| 32 |]; data = Mlir.Interp.Di data } in
  let src = Array.init 32 (fun i -> Int64.of_int (i * 640)) in
  let dst = Array.make 32 0L in
  let _ =
    Mlir.Interp.run m "scale_into"
      [ Mlir.Interp.Ri (32L, 64); mk src; mk dst ]
  in
  Array.iteri
    (fun i v ->
      if not (Int64.equal v (Int64.of_int (i * 10))) then
        Alcotest.fail (Printf.sprintf "dst[%d] = %Ld, want %d" i v (i * 10)))
    dst

(* ------------------------------------------------------------------ *)
(* Custom dialects and hooks                                           *)
(* ------------------------------------------------------------------ *)

let test_custom_dialect_rules () =
  let rules =
    {|
(function cx_conj (Op Type) Op :cost 2)
(function cx_mul (Op Op Type) Op :cost 10)
(rewrite (cx_conj (cx_conj ?z ?t) ?t) ?z)
|}
  in
  let m, _ =
    optimize ~config:(default_cfg rules)
      {|
func.func @f(%z: complex<f64>) -> complex<f64> {
  %a = "cx.conj"(%z) : (complex<f64>) -> complex<f64>
  %b = "cx.conj"(%a) : (complex<f64>) -> complex<f64>
  func.return %b : complex<f64>
}|}
  in
  checki "conj pair eliminated" 0 (count_op "cx.conj" m)

(* The per-function engine set-up as a fresh engine does it: replay the
   prelude, load the rules, scan the signatures, register their [type-of]
   rules, eggify.  The pipeline forks a base engine instead; a fork must
   give what this gives. *)
let fresh_setup rules func =
  let engine = Egglog.Interp.create () in
  Egglog.Interp.run_commands engine (Lazy.force Dialegg.Prelude.commands);
  Egglog.Interp.run_string engine rules;
  let sigs = Dialegg.Sigs.scan (Egglog.Interp.egraph engine) in
  Egglog.Interp.run_commands engine (Dialegg.Sigs.type_of_rules sigs);
  let hooks = Dialegg.Translate.make_hooks () in
  let eggify = Dialegg.Eggify.create ~engine ~sigs ~hooks in
  let root = Dialegg.Eggify.translate_function eggify func in
  (engine, eggify, sigs, hooks, root)

(* [src] optimized function by function in fresh engines, as the
   pipeline does it by default, then printed *)
let fresh_compile rules src =
  let m = Mlir.Parser.parse_module src in
  List.iter
    (fun func ->
      if func.Mlir.Ir.op_name = "func.func" then begin
        let engine, eggify, sigs, hooks, root = fresh_setup rules func in
        ignore (Egglog.Interp.run engine Dialegg.Pipeline.default_config.max_iterations);
        let eg = Egglog.Interp.egraph engine in
        Egglog.Egraph.rebuild eg;
        let extractor = Egglog.Extract.make eg in
        let root_class =
          match Egglog.Interp.global engine root with
          | Egglog.Value.Eclass c -> c
          | _ -> Alcotest.fail "root is not an e-class"
        in
        let term = Egglog.Extract.extract_class extractor root_class in
        Dialegg.Deeggify.rebuild_function
          (Dialegg.Deeggify.create ~sigs ~hooks ~extractor ~eggify ())
          func term;
        ignore (Mlir.Transforms.dce func)
      end)
    (Mlir.Ir.module_ops m);
  Mlir.Printer.module_to_string m

(* With the static tiers off nothing reads the ruleset before the
   set-up: one that does not read fails there, with the message of the
   interpreter's reader. *)
let test_unreadable_rules_tiers_off () =
  let config rules = { (default_cfg rules) with lint = false; vet = false; audit = false } in
  let src = {|
func.func @f(%x: i64) -> i64 {
  func.return %x : i64
}|} in
  List.iter
    (fun (what, rules) ->
      let expected =
        match Egglog.Parser.parse_program rules with
        | _ -> Alcotest.fail (what ^ ": the ruleset reads")
        | exception Egglog.Parser.Error m -> "rules: " ^ m
      in
      match Dialegg.Pipeline.optimize_source ~config:(config rules) src with
      | _ -> Alcotest.fail (what ^ ": an unreadable ruleset compiled")
      | exception Dialegg.Pipeline.Error m -> checks what expected m)
    [
      ("unbalanced", "(ruleset r)\n(rewrite (arith_addi ?x ?y ?t)\n  (arith_addi ?y ?x ?t)");
      ("not a command", "(ruleset r)\n(extract (Value 0 (I64)) :variants x)\n(ruleset s)");
    ];
  match
    Dialegg.Pipeline.optimize_source ~config:(config "(ruleset r)\n(rule") src
  with
  | _ -> Alcotest.fail "an unbalanced ruleset compiled"
  | exception Dialegg.Pipeline.Error m ->
    checkb ("the line is named: " ^ m) true (String.starts_with ~prefix:"rules: line 2: " m)

(* One reading of a ruleset serves the static tiers and the set-up of
   every function of a module; each function's engine compiles only the
   rules of its ruleset that fire: the prelude's and the [type-of] rules
   come compiled from the base. *)
let test_rules_read_once () =
  (* a ruleset no other test reads *)
  let rules = Dialegg.Rules.matmul_assoc ^ "\n; read once\n" in
  let func k =
    let n = k + 4 in
    Printf.sprintf
      {|
func.func @mm%d(%%a: tensor<10x20xf64>, %%b: tensor<20x30xf64>, %%c: tensor<30x%dxf64>) -> tensor<10x%dxf64> {
  %%e1 = tensor.empty() : tensor<10x30xf64>
  %%ab = linalg.matmul ins(%%a, %%b : tensor<10x20xf64>, tensor<20x30xf64>) outs(%%e1 : tensor<10x30xf64>) -> tensor<10x30xf64>
  %%e2 = tensor.empty() : tensor<10x%dxf64>
  %%abc = linalg.matmul ins(%%ab, %%c : tensor<10x30xf64>, tensor<30x%dxf64>) outs(%%e2 : tensor<10x%dxf64>) -> tensor<10x%dxf64>
  func.return %%abc : tensor<10x%dxf64>
}|}
      k n n n n n n n
  in
  let src = String.concat "\n" (List.init 3 func) in
  let read = Dialegg.Pipeline.rules_read () in
  let out, report = Dialegg.Pipeline.optimize_source ~config:(default_cfg rules) src in
  checki "three functions" 3 (List.length report.Dialegg.Pipeline.r_funcs);
  checki "lint and three set-ups read the ruleset once" 1 (Dialegg.Pipeline.rules_read () - read);
  let off = { (default_cfg rules) with lint = false; vet = false; audit = false } in
  checks "the same bytes with the tiers off" out (fst (Dialegg.Pipeline.optimize_source ~config:off src));
  checki "and no second reading" 1 (Dialegg.Pipeline.rules_read () - read);
  let m = Mlir.Parser.parse_module src in
  let f = List.hd (Mlir.Ir.module_ops m) in
  let engine, _, _, _ = Dialegg.Pipeline.setup_function off f in
  ignore (Egglog.Interp.run engine 64);
  let fired =
    List.filter (fun (s : Egglog.Interp.rule_stat) -> s.rs_matches > 0) (Egglog.Interp.rule_stats engine)
  in
  checkb "type-of rules fired" true
    (List.exists (fun (s : Egglog.Interp.rule_stat) -> String.starts_with ~prefix:"type-of-" s.rs_name) fired);
  checki "the engine compiled only the ruleset's rules"
    (Dialegg.Rules.count_rules rules)
    (Egglog.Interp.compiled_rules engine)

let test_custom_ops_one_process () =
  (* a plain ruleset, one that declares op constructors, the plain one
     again: the custom one gets its own signatures and type-of rules, the
     plain ones the base's, and every compile is a fresh engine's *)
  let plain_rules =
    {|(rewrite (arith_muli ?x (arith_constant (NamedAttr "value" (IntegerAttr 1 ?t)) ?t) ?t) ?x)|}
  and plain_src =
    {|
func.func @g(%x: i64) -> i64 {
  %c1 = arith.constant 1 : i64
  %y = arith.muli %x, %c1 : i64
  func.return %y : i64
}|}
  and custom_rules =
    {|
(function cx_conj (Op Type) Op :cost 2)
(function cx_mul (Op Op Type) Op :cost 10)
(rewrite (cx_conj (cx_conj ?z ?t) ?t) ?z)
|}
  and custom_src =
    {|
func.func @f(%z: complex<f64>) -> complex<f64> {
  %a = "cx.conj"(%z) : (complex<f64>) -> complex<f64>
  %b = "cx.conj"(%a) : (complex<f64>) -> complex<f64>
  func.return %b : complex<f64>
}|}
  in
  let custom_rows (report : Dialegg.Pipeline.report) =
    List.filter
      (String.starts_with ~prefix:"type-of-cx_")
      (List.map
         (fun (s : Egglog.Interp.rule_stat) -> s.Egglog.Interp.rs_name)
         report.Dialegg.Pipeline.r_timings.Dialegg.Pipeline.rule_stats)
  in
  let rule_names rules src =
    (* the rules each set-up registers, in order *)
    let func () =
      List.find
        (fun op -> op.Mlir.Ir.op_name = "func.func")
        (Mlir.Ir.module_ops (Mlir.Parser.parse_module src))
    in
    let names engine = List.map (fun (n, _, _) -> n) (Egglog.Interp.premises engine) in
    let forked, _, _, _ = Dialegg.Pipeline.setup_function (default_cfg rules) (func ()) in
    let fresh, _, _, _, _ = fresh_setup rules (func ()) in
    (names forked, names fresh)
  in
  let compile what rules src =
    let out, report = Dialegg.Pipeline.optimize_source ~config:(default_cfg rules) src in
    checks (what ^ ": the bytes of a fresh engine") (fresh_compile rules src) out;
    let forked, fresh = rule_names rules src in
    Alcotest.(check (list string)) (what ^ ": the rules of a fresh engine") fresh forked;
    (out, custom_rows report)
  in
  let plain1, rows1 = compile "plain" plain_rules plain_src in
  let custom, rows2 = compile "custom" custom_rules custom_src in
  let plain2, rows3 = compile "plain again" plain_rules plain_src in
  Alcotest.(check (list string)) "the custom ruleset's ops get type-of rules"
    [ "type-of-cx_conj"; "type-of-cx_mul" ]
    (List.sort compare rows2);
  Alcotest.(check (list string)) "the plain ruleset's do not, before" [] rows1;
  Alcotest.(check (list string)) "nor after" [] rows3;
  checki "the conj pair is gone" 0 (count_op "cx.conj" (Mlir.Parser.parse_module custom));
  checki "x * 1 is gone" 0 (count_op "arith.muli" (Mlir.Parser.parse_module plain1));
  checks "the plain ruleset compiles the same after the custom one" plain1 plain2

let test_custom_type_hook () =
  (* a user type hook maps !quant to a first-class egg constructor *)
  let hooks = Dialegg.Translate.make_hooks () in
  Dialegg.Translate.register_type_hook hooks
    ~eggify:(fun ty ->
      match ty with
      | Mlir.Typ.Opaque (_, "quant") -> Some (Egglog.Ast.Call ("QuantType", []))
      | _ -> None)
    ~deeggify:(fun name _args ->
      if name = "QuantType" then Some (Mlir.Typ.Opaque ("!quant", "quant")) else None);
  let rules = {|
(function QuantType () Type)
(function q_noop (Op Type) Op :cost 5)
(rewrite (q_noop (q_noop ?x ?t) ?t) (q_noop ?x ?t))
|} in
  let m = Mlir.Parser.parse_module
      {|
func.func @f(%x: !quant) -> !quant {
  %a = "q.noop"(%x) : (!quant) -> !quant
  %b = "q.noop"(%a) : (!quant) -> !quant
  func.return %b : !quant
}|}
  in
  let config = default_cfg rules in
  ignore (Dialegg.Pipeline.optimize_module ~config ~hooks m);
  Mlir.Verifier.verify_exn m;
  checki "noop pair collapsed" 1 (count_op "q.noop" m)

let test_nested_regions_roundtrip () =
  (* scf.if nested inside scf.for, rewrites firing at both levels *)
  let m, _ =
    optimize ~config:(default_cfg Dialegg.Rules.div_pow2)
      {|
func.func @f(%n: index, %t: tensor<16xi64>) -> tensor<16xi64> {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %z = arith.constant 0 : i64
  %c16 = arith.constant 16 : i64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %t) -> (tensor<16xi64>) {
    %v = tensor.extract %acc[%i] : tensor<16xi64>
    %neg = arith.cmpi slt, %v, %z : i64
    %d = scf.if %neg -> (i64) {
      scf.yield %z : i64
    } else {
      %q = arith.divsi %v, %c16 : i64
      scf.yield %q : i64
    }
    %acc2 = tensor.insert %d into %acc[%i] : tensor<16xi64>
    scf.yield %acc2 : tensor<16xi64>
  }
  func.return %r : tensor<16xi64>
}|}
  in
  checki "for kept" 1 (count_op "scf.for" m);
  checki "if kept" 1 (count_op "scf.if" m);
  checki "division rewritten inside nested region" 0 (count_op "arith.divsi" m);
  checki "shift present" 1 (count_op "arith.shrsi" m);
  let data = Array.init 16 (fun i -> Int64.of_int ((i * 100) - 300)) in
  let r =
    Mlir.Interp.run m "f"
      [ Mlir.Interp.Ri (16L, 64); Mlir.Interp.Rt { shape = [| 16 |]; data = Mlir.Interp.Di data } ]
  in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rt { data = Mlir.Interp.Di out; _ } ] ->
    Array.iteri
      (fun i v ->
        let orig = Int64.of_int ((i * 100) - 300) in
        let expect = if Int64.compare orig 0L < 0 then 0L else Int64.div orig 16L in
        if not (Int64.equal v expect) then
          Alcotest.fail (Printf.sprintf "out[%d] = %Ld, want %Ld" i v expect))
      out
  | _ -> Alcotest.fail "unexpected result"

let test_multi_operand_return_opaque () =
  (* func.return with 2 operands has no registered egg variant: the
     terminator goes through the opaque-anchor path and survives *)
  let _, _, m =
    identity_roundtrip
      {|
func.func @two(%x: i64) -> (i64, i64) {
  %y = arith.addi %x, %x : i64
  func.return %x, %y : i64, i64
}|}
  in
  checki "return kept" 1 (count_op "func.return" m);
  checki "addi kept (used by the opaque return)" 1 (count_op "arith.addi" m);
  let r = Mlir.Interp.run m "two" [ Mlir.Interp.Ri (21L, 64) ] in
  checkb "both results" true
    (r.Mlir.Interp.values = [ Mlir.Interp.Ri (21L, 64); Mlir.Interp.Ri (42L, 64) ])

let test_rank3_tensor_extract () =
  (* tensor_extract_3 (three indices) through the pipeline *)
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%t: tensor<2x3x4xi64>) -> i64 {
  %c1 = arith.constant 1 : index
  %v = tensor.extract %t[%c1, %c1, %c1] : tensor<2x3x4xi64>
  func.return %v : i64
}|}
  in
  checki "extract survives" 1 (count_op "tensor.extract" m)

let test_cmpf_predicate_roundtrip () =
  (* two named attributes (fastmath + predicate) in canonical order *)
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%a: f32, %b: f32) -> i1 {
  %c = arith.cmpf oge, %a, %b fastmath<fast> : f32
  func.return %c : i1
}|}
  in
  let cmps = Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.cmpf") m in
  checki "one cmpf" 1 (List.length cmps);
  checkb "predicate preserved" true
    (Mlir.Ir.attr (List.hd cmps) "predicate" = Some (Mlir.Attr.Int (3L, Mlir.Typ.i64)));
  checkb "fastmath preserved" true
    (Mlir.Ir.attr (List.hd cmps) "fastmath" = Some (Mlir.Attr.Fastmath Mlir.Attr.Fm_fast))

let test_opaque_type_survives () =
  (* a !quant-typed value without hooks: OpaqueType carries the serialized
     form through the round trip *)
  let _, _, m =
    identity_roundtrip
      {|
func.func @f(%x: !quant) -> !quant {
  %y = "q.noop"(%x) : (!quant) -> !quant
  func.return %y : !quant
}|}
  in
  let f = Option.get (Mlir.Ir.find_function m "f") in
  let _, rets = Mlir.Ir.func_type f in
  checkb "opaque type preserved" true (rets = [ Mlir.Typ.Opaque ("!quant", "quant") ])

let test_eggify_deterministic () =
  let src =
    {|
func.func @f(%x: i64) -> i64 {
  %a = arith.addi %x, %x : i64
  %b = arith.muli %a, %x : i64
  func.return %b : i64
}|}
  in
  let dump () =
    let f = Option.get (Mlir.Ir.find_function (Mlir.Parser.parse_module src) "f") in
    let _, eggify, _, _ = Dialegg.Pipeline.setup_function Dialegg.Pipeline.default_config f in
    Dialegg.Eggify.to_source eggify
  in
  checks "translation is deterministic" (dump ()) (dump ())

let test_staged_schedule () =
  (* two rulesets staged: strength-reduce first, then a cleanup ruleset *)
  let rules =
    {|
(ruleset cleanup)
|}
    ^ Dialegg.Rules.div_pow2
    ^ {|
(rewrite (arith_shrsi ?x (arith_constant (NamedAttr "value" (IntegerAttr 0 ?t)) ?t) ?t)
         ?x :ruleset cleanup)
|}
  in
  let config =
    {
      (default_cfg rules) with
      schedule = Some [ (None, 16); (Some "cleanup", 16) ];
    }
  in
  let m, t =
    optimize ~config
      {|
func.func @f(%x: i64) -> i64 {
  %c1 = arith.constant 1 : i64
  %r = arith.divsi %x, %c1 : i64
  func.return %r : i64
}|}
  in
  (* /1 -> >>0 (stage 1) -> x (stage 2) *)
  checki "no division" 0 (count_op "arith.divsi" m);
  checki "no shift either" 0 (count_op "arith.shrsi" m);
  checkb "both stages ran" true (t.Dialegg.Pipeline.iterations >= 2)

let test_dag_cost_reported () =
  let _, t = optimize ~config:(default_cfg "") mm2_src in
  checkb "dag cost <= tree cost" true
    (t.Dialegg.Pipeline.extracted_dag_cost <= t.Dialegg.Pipeline.extracted_cost);
  checkb "dag cost positive" true (t.Dialegg.Pipeline.extracted_dag_cost > 0)

(* ------------------------------------------------------------------ *)
(* Pipeline semantics preservation (property)                          *)
(* ------------------------------------------------------------------ *)

let pipeline_preserves_semantics rules name =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name ~count:60
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
           }
         in
         ignore (Dialegg.Pipeline.optimize_module ~config m);
         Mlir.Verifier.verify_exn m;
         match before with
         | None -> true (* program traps; nothing to compare *)
         | Some v -> Test_support.Gen_mlir.run_module m args = v))

let test_pipeline_identity_prop () =
  pipeline_preserves_semantics "" "pipeline without rules preserves semantics"

let test_pipeline_rules_prop () =
  pipeline_preserves_semantics
    (Dialegg.Rules.const_fold ^ Dialegg.Rules.div_pow2)
    "pipeline with fold+shift rules preserves semantics"

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

let test_unsound_rule_detected () =
  (* a rule that rewrites an i64 op to a mistyped term produces IR that the
     post-pipeline verifier rejects *)
  let rules =
    {|
(rewrite (arith_addi ?x ?y ?t) (arith_addf ?x ?y (NamedAttr "fastmath" (arith_fastmath (none))) ?t))
|}
  in
  match
    optimize ~config:(default_cfg rules)
      {|
func.func @f(%x: i64) -> i64 {
  %r = arith.addi %x, %x : i64
  func.return %r : i64
}|}
  with
  | exception Dialegg.Pipeline.Error _ -> ()
  | m, _ ->
    (* extraction may still have picked the sound variant; then addi must
       remain and the verifier must be happy *)
    checkb "sound variant chosen or error raised" true (count_op "arith.addi" m = 1)

let test_saturation_budget_respected () =
  (* explosive commutativity on a big expression: node budget stops it and
     the pipeline still produces valid output *)
  let rules = Dialegg.Rules.horner in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "func.func @f(%x: f64) -> f64 {\n";
  Buffer.add_string buf "  %v0 = arith.mulf %x, %x : f64\n";
  for i = 1 to 15 do
    Buffer.add_string buf
      (Printf.sprintf "  %%v%d = arith.addf %%v%d, %%x : f64\n" i (i - 1))
  done;
  Buffer.add_string buf "  func.return %v15 : f64\n}\n";
  let config =
    { (default_cfg rules) with max_nodes = 2_000; max_iterations = 50; timeout = Some 10.0 }
  in
  let m, t = optimize ~config (Buffer.contents buf) in
  Mlir.Verifier.verify_exn m;
  checkb "stopped by a budget" true
    (t.Dialegg.Pipeline.stop <> Egglog.Interp.Saturated
    || t.Dialegg.Pipeline.n_nodes <= 2_000)

let test_eggify_source_dump () =
  (* the .egg dump of a translation is itself parseable Egglog *)
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%x: i64) -> i64 {
  %a = arith.addi %x, %x : i64
  func.return %a : i64
}|}
  in
  let f = Option.get (Mlir.Ir.find_function m "f") in
  let _, eggify, _, _ = Dialegg.Pipeline.setup_function Dialegg.Pipeline.default_config f in
  let src = Dialegg.Eggify.to_source eggify in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "parses back" true (List.length (Egglog.Parser.parse_program src) > 0);
  checkb "mentions arith_addi" true (contains src "arith_addi")

(* --stats must print the rule table in the same order on every run: two
   stat lists that differ only in their timings print the same rows, most
   matches first, ties broken by rule name. *)
let test_rule_stats_order () =
  let stat name matches search apply =
    {
      Egglog.Interp.rs_name = name;
      rs_ruleset = None;
      rs_searches = 3;
      rs_matches = matches;
      rs_search_time = search;
      rs_apply_time = apply;
    }
  in
  let stats times =
    List.map2
      (fun (name, matches) (search, apply) -> stat name matches search apply)
      [ ("zeta", 4); ("alpha", 4); ("mid", 9); ("beta", 0); ("gamma", 4) ]
      times
  in
  (* the rows without their two time columns *)
  let rows l =
    Fmt.str "%a" Dialegg.Pipeline.pp_rule_stats l
    |> String.split_on_char '\n'
    |> List.filter (fun line -> line <> "")
    |> List.map (fun line ->
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | name :: searches :: matches :: _ -> String.concat " " [ name; searches; matches ]
           | _ -> line)
  in
  let a = rows (stats [ (0.5, 0.1); (0.001, 0.); (0.2, 0.3); (0.9, 0.9); (0.01, 0.02) ]) in
  let b = rows (stats [ (0.001, 0.); (0.7, 0.2); (0.002, 0.); (0., 0.); (0.3, 0.3) ]) in
  Alcotest.(check (list string)) "times do not reorder rows" a b;
  Alcotest.(check (list string))
    "most matches first, ties by name"
    [ "mid"; "alpha"; "gamma"; "zeta"; "beta" ]
    (List.map (fun r -> List.hd (String.split_on_char ' ' r)) (List.tl a))

let () =
  Alcotest.run "dialegg"
    [
      ( "translate",
        [
          Alcotest.test_case "type roundtrip" `Quick test_type_roundtrip;
          Alcotest.test_case "type roundtrip property" `Quick test_type_roundtrip_prop;
          Alcotest.test_case "attr roundtrip" `Quick test_attr_roundtrip;
        ] );
      ( "sigs",
        [
          Alcotest.test_case "prelude scan" `Quick test_sigs_scan;
          Alcotest.test_case "bad parameter order rejected" `Quick test_sigs_rejects_bad_order;
          Alcotest.test_case "variadic suffixes" `Quick test_variadic_suffix_parse;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "scalar identity" `Quick test_identity_scalar;
          Alcotest.test_case "loop identity + semantics" `Quick test_identity_regions;
          Alcotest.test_case "if identity + semantics" `Quick test_identity_if;
          Alcotest.test_case "hash-consing dedupes" `Quick test_identity_dedupes;
          Alcotest.test_case "extraction drops dead code" `Quick test_identity_drops_dead_code;
          Alcotest.test_case "signed zeros kept apart" `Quick test_signed_zero_kept;
        ] );
      ( "opaque",
        [
          Alcotest.test_case "opaque op survives" `Quick test_opaque_survives;
          Alcotest.test_case "opaque operands optimized" `Quick test_opaque_operands_rewritten;
          Alcotest.test_case "zero-result anchors kept" `Quick test_opaque_zero_result_anchor;
          Alcotest.test_case "opaque region kept" `Quick test_opaque_with_region;
          Alcotest.test_case "multi-result ops opaque" `Quick test_multi_result_opaque;
        ] );
      ( "case-studies",
        [
          Alcotest.test_case "§7.1 constant folding" `Quick test_case_const_fold;
          Alcotest.test_case "§7.2 div by pow2" `Quick test_case_div_pow2;
          Alcotest.test_case "§7.2 guard holds" `Quick test_case_div_pow2_negative;
          Alcotest.test_case "§7.3 fast inv sqrt" `Quick test_case_fast_inv_sqrt;
          Alcotest.test_case "§7.3 attribute gating" `Quick test_case_fast_inv_sqrt_requires_fastmath;
          Alcotest.test_case "§7.4 matmul associativity" `Quick test_case_matmul_assoc;
          Alcotest.test_case "§7.5 Horner" `Quick test_case_horner;
          Alcotest.test_case "rewrites inside regions" `Quick test_rewrite_inside_region;
          Alcotest.test_case "memref loop: effects + rewrites" `Quick test_memref_loop_pipeline;
        ] );
      ( "extensibility",
        [
          Alcotest.test_case "custom dialect rules" `Quick test_custom_dialect_rules;
          Alcotest.test_case "custom type hooks" `Quick test_custom_type_hook;
          Alcotest.test_case "custom ops in one process" `Quick test_custom_ops_one_process;
          Alcotest.test_case "unreadable rules, tiers off" `Quick test_unreadable_rules_tiers_off;
          Alcotest.test_case "a ruleset is read once" `Quick test_rules_read_once;
        ] );
      ( "pipeline-features",
        [
          Alcotest.test_case "staged ruleset schedule" `Quick test_staged_schedule;
          Alcotest.test_case "dag cost reported" `Quick test_dag_cost_reported;
          Alcotest.test_case "nested regions rewrite + run" `Quick test_nested_regions_roundtrip;
          Alcotest.test_case "multi-operand return opaque" `Quick test_multi_operand_return_opaque;
          Alcotest.test_case "rank-3 tensor extract" `Quick test_rank3_tensor_extract;
          Alcotest.test_case "cmpf attrs round-trip" `Quick test_cmpf_predicate_roundtrip;
          Alcotest.test_case "opaque type survives" `Quick test_opaque_type_survives;
          Alcotest.test_case "eggify deterministic" `Quick test_eggify_deterministic;
          Alcotest.test_case "stats rule order" `Quick test_rule_stats_order;
        ] );
      ( "properties",
        [
          Alcotest.test_case "identity pipeline preserves semantics" `Slow
            test_pipeline_identity_prop;
          Alcotest.test_case "rule pipeline preserves semantics" `Slow
            test_pipeline_rules_prop;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "unsound rule surfaces" `Quick test_unsound_rule_detected;
          Alcotest.test_case "saturation budgets respected" `Quick test_saturation_budget_respected;
          Alcotest.test_case "egg dump parseable" `Quick test_eggify_source_dump;
        ] );
    ]
