(* Tests for the mini-MLIR substrate: types, attributes, IR construction,
   parsing/printing, verification, interpretation, and the transformation
   passes (canonicalize / CSE / DCE / greedy matmul re-association). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checki64 = Alcotest.(check int64)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_type_printing () =
  let cases =
    [
      (Mlir.Typ.i1, "i1");
      (Mlir.Typ.i64, "i64");
      (Mlir.Typ.f32, "f32");
      (Mlir.Typ.index, "index");
      (Mlir.Typ.None_type, "none");
      (Mlir.Typ.Ranked_tensor ([ 2; 3 ], Mlir.Typ.i64), "tensor<2x3xi64>");
      (Mlir.Typ.Ranked_tensor ([ -1; 4 ], Mlir.Typ.f32), "tensor<?x4xf32>");
      (Mlir.Typ.Unranked_tensor Mlir.Typ.f64, "tensor<*xf64>");
      (Mlir.Typ.Memref ([ 8 ], Mlir.Typ.i8), "memref<8xi8>");
      (Mlir.Typ.Complex Mlir.Typ.f64, "complex<f64>");
      (Mlir.Typ.Tuple [ Mlir.Typ.i1; Mlir.Typ.f32 ], "tuple<i1, f32>");
      (Mlir.Typ.Function ([ Mlir.Typ.f32 ], [ Mlir.Typ.f32 ]), "(f32) -> f32");
    ]
  in
  List.iter (fun (t, s) -> checks s s (Mlir.Typ.to_string t)) cases;
  List.iter
    (fun (t, s) -> checkb ("parse " ^ s) true (Mlir.Typ.equal t (Mlir.Typ.of_string s)))
    cases

let test_type_roundtrip_prop () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"type print/parse roundtrip" ~count:300
       (QCheck.make Test_support.Gen_mlir.any_type) (fun t ->
         Mlir.Typ.equal t (Mlir.Typ.of_string (Mlir.Typ.to_string t))))

let test_type_parse_errors () =
  let fails s =
    match Mlir.Typ.of_string s with
    | exception Mlir.Typ.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  fails "tensor<";
  fails "f31";
  fails "qux";
  fails "tensor<2x3xi64> extra"

(* ------------------------------------------------------------------ *)
(* Integer semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_int_wrapping () =
  checki64 "i8 wraps" (-128L) (Mlir.Ints.add 8 127L 1L);
  checki64 "i8 mul wraps" (-24L) (Mlir.Ints.mul 8 100L 10L);
  checki64 "i64 passthrough" Int64.min_int (Mlir.Ints.add 64 Int64.max_int 1L);
  checki64 "trunc idempotent" (Mlir.Ints.trunc 13 12345L)
    (Mlir.Ints.trunc 13 (Mlir.Ints.trunc 13 12345L));
  checki64 "shrui logical" 1L (Mlir.Ints.shrui 8 (-128L) 7L);
  checki64 "shrsi arithmetic" (-1L) (Mlir.Ints.shrsi 8 (-128L) 7L)

let test_cmp_predicates () =
  checkb "slt" true (Mlir.Ints.cmpi 64 2 (-1L) 1L);
  checkb "ult (unsigned)" false (Mlir.Ints.cmpi 64 6 (-1L) 1L);
  checkb "oge nan" false (Mlir.Ints.cmpf 3 Float.nan 1.0);
  checkb "une nan" true (Mlir.Ints.cmpf 13 Float.nan Float.nan);
  checkb "oeq" true (Mlir.Ints.cmpf 1 2.0 2.0)

let test_pow2 () =
  checkb "256 pow2" true (Mlir.Ints.is_power_of_two 256L);
  checkb "100 not" false (Mlir.Ints.is_power_of_two 100L);
  checkb "0 not" false (Mlir.Ints.is_power_of_two 0L);
  checkb "neg not" false (Mlir.Ints.is_power_of_two (-4L));
  checki "log2 256" 8 (Mlir.Ints.log2 256L)

(* ------------------------------------------------------------------ *)
(* Parsing / printing                                                  *)
(* ------------------------------------------------------------------ *)

let roundtrip src =
  let m = Mlir.Parser.parse_module src in
  Mlir.Verifier.verify_exn m;
  let p1 = Mlir.Printer.module_to_string m in
  let m2 = Mlir.Parser.parse_module p1 in
  Mlir.Verifier.verify_exn m2;
  let p2 = Mlir.Printer.module_to_string m2 in
  checks "print-parse-print fixpoint" p1 p2;
  m

let test_parse_sqrt_abs () =
  (* the paper's §5.4 example: four dialects, regions, fastmath *)
  let m =
    roundtrip
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
  checki "one function" 1 (List.length (Mlir.Ir.module_ops m))

let test_parse_loop () =
  ignore
    (roundtrip
       {|
func.func @sum(%n: index, %t: tensor<16xf64>) -> f64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %zero = arith.constant 0.0 : f64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %zero) -> (f64) {
    %v = tensor.extract %t[%i] : tensor<16xf64>
    %acc2 = arith.addf %acc, %v : f64
    scf.yield %acc2 : f64
  }
  func.return %r : f64
}|})

let test_parse_generic () =
  let m =
    roundtrip
      {|
func.func @g(%x: f64) -> f64 {
  %r = "mydialect.weird_op"(%x, %x) {flag, level = 3 : i64, name = "zap"} : (f64, f64) -> f64
  func.return %r : f64
}|}
  in
  let ops = Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "mydialect.weird_op") m in
  checki "custom op parsed" 1 (List.length ops);
  match Mlir.Ir.attr (List.hd ops) "level" with
  | Some (Mlir.Attr.Int (3L, _)) -> ()
  | _ -> Alcotest.fail "attr dict mishandled"

let test_parse_generic_region () =
  ignore
    (roundtrip
       {|
func.func @g(%x: i64) -> i64 {
  %r = "my.loop"(%x) ({
    ^bb(%a: i64):
    %y = arith.addi %a, %a : i64
  }) : (i64) -> i64
  func.return %r : i64
}|})

let test_parse_call_and_matmul () =
  ignore
    (roundtrip
       {|
func.func @h(%a: tensor<4x5xf64>, %b: tensor<5x6xf64>) -> tensor<4x6xf64> {
  %e = tensor.empty() : tensor<4x6xf64>
  %r = linalg.matmul ins(%a, %b : tensor<4x5xf64>, tensor<5x6xf64>) outs(%e : tensor<4x6xf64>) -> tensor<4x6xf64>
  func.return %r : tensor<4x6xf64>
}
func.func @uses_h(%a: tensor<4x5xf64>, %b: tensor<5x6xf64>) -> tensor<4x6xf64> {
  %r = func.call @h(%a, %b) : (tensor<4x5xf64>, tensor<5x6xf64>) -> tensor<4x6xf64>
  func.return %r : tensor<4x6xf64>
}|})

let test_parse_errors () =
  let fails s =
    match Mlir.Parser.parse_module s with
    | exception Mlir.Parser.Syntax_error _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ s)
  in
  fails "func.func @f() -> i64 { func.return %undefined : i64 }";
  fails "func.func @f(%x: i64) { %x = arith.constant 1 : i64 }";
  fails "func.func @f() { unknown.op %a }";
  fails "func.func @f() -> i64 {";
  fails "%0 = arith.addi %a, %b"

let test_roundtrip_prop () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"random program print/parse roundtrip" ~count:100
       (QCheck.make Test_support.Gen_mlir.program_gen) (fun p ->
         let m = Test_support.Gen_mlir.to_module p in
         let s1 = Mlir.Printer.module_to_string m in
         let m2 = Mlir.Parser.parse_module s1 in
         Mlir.Printer.module_to_string m2 = s1))

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

let test_verifier_dominance () =
  (* build IR that uses a value before its definition *)
  Mlir.Registry.ensure_registered ();
  let m = Mlir.Ir.create_module () in
  let _f, blk = Mlir.D_func.add_func m ~name:"f" ~arg_types:[] ~ret_types:[ Mlir.Typ.i64 ] in
  let c1 = Mlir.D_arith.const_int blk 1L in
  let sum = Mlir.D_arith.addi blk c1 c1 in
  ignore (Mlir.D_func.return blk [ sum ]);
  (* move the addi before the constant: breaks dominance *)
  (match blk.Mlir.Ir.blk_ops with
  | [ a; b; r ] -> Mlir.Ir.set_ops blk [ b; a; r ]
  | _ -> Alcotest.fail "unexpected ops");
  checkb "dominance violation detected" true (Mlir.Verifier.verify m <> [])

let test_verifier_arity () =
  Mlir.Registry.ensure_registered ();
  let m = Mlir.Ir.create_module () in
  let _f, blk = Mlir.D_func.add_func m ~name:"f" ~arg_types:[ Mlir.Typ.i64 ] ~ret_types:[] in
  let x = blk.Mlir.Ir.blk_args.(0) in
  let bad = Mlir.Ir.create_op "arith.addi" ~operands:[ x ] ~result_types:[ Mlir.Typ.i64 ] in
  Mlir.Ir.append_op blk bad;
  ignore (Mlir.D_func.return blk []);
  checkb "arity violation detected" true (Mlir.Verifier.verify m <> [])

let test_verifier_type_mismatch () =
  Mlir.Registry.ensure_registered ();
  let m = Mlir.Ir.create_module () in
  let _f, blk =
    Mlir.D_func.add_func m ~name:"f" ~arg_types:[ Mlir.Typ.i64; Mlir.Typ.f64 ] ~ret_types:[]
  in
  let bad =
    Mlir.Ir.create_op "arith.addi"
      ~operands:[ blk.Mlir.Ir.blk_args.(0); blk.Mlir.Ir.blk_args.(1) ]
      ~result_types:[ Mlir.Typ.i64 ]
  in
  Mlir.Ir.append_op blk bad;
  ignore (Mlir.D_func.return blk []);
  checkb "mixed types detected" true (Mlir.Verifier.verify m <> [])

let test_verifier_matmul_shapes () =
  let src =
    {|
func.func @bad(%a: tensor<4x5xf64>, %b: tensor<6x7xf64>) -> tensor<4x7xf64> {
  %e = tensor.empty() : tensor<4x7xf64>
  %r = linalg.matmul ins(%a, %b : tensor<4x5xf64>, tensor<6x7xf64>) outs(%e : tensor<4x7xf64>) -> tensor<4x7xf64>
  func.return %r : tensor<4x7xf64>
}|}
  in
  let m = Mlir.Parser.parse_module src in
  checkb "inner-dim mismatch detected" true (Mlir.Verifier.verify m <> [])

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let run_i64 src func args =
  let m = Mlir.Parser.parse_module src in
  let r = Mlir.Interp.run m func (List.map (fun a -> Mlir.Interp.Ri (a, 64)) args) in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Ri (v, _) ] -> v
  | _ -> Alcotest.fail "unexpected result shape"

let test_interp_arith () =
  let v =
    run_i64
      {|
func.func @f(%x: i64) -> i64 {
  %c3 = arith.constant 3 : i64
  %a = arith.muli %x, %c3 : i64
  %b = arith.addi %a, %c3 : i64
  %c = arith.divsi %b, %c3 : i64
  func.return %c : i64
}|}
      "f" [ 10L ]
  in
  checki64 "(10*3+3)/3" 11L v

let test_interp_loop () =
  let v =
    run_i64
      {|
func.func @sum_to(%n: index) -> i64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %zero = arith.constant 0 : i64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %zero) -> (i64) {
    %iv = arith.index_cast %i : index to i64
    %acc2 = arith.addi %acc, %iv : i64
    scf.yield %acc2 : i64
  }
  func.return %r : i64
}|}
      "sum_to" [ 10L ]
  in
  checki64 "sum 0..9" 45L v

let test_interp_if () =
  let src =
    {|
func.func @abs(%x: i64) -> i64 {
  %zero = arith.constant 0 : i64
  %neg = arith.cmpi slt, %x, %zero : i64
  %r = scf.if %neg -> (i64) {
    %m = arith.subi %zero, %x : i64
    scf.yield %m : i64
  } else {
    scf.yield %x : i64
  }
  func.return %r : i64
}|}
  in
  checki64 "abs(-5)" 5L (run_i64 src "abs" [ -5L ]);
  checki64 "abs(7)" 7L (run_i64 src "abs" [ 7L ])

let test_interp_call () =
  let v =
    run_i64
      {|
func.func @double(%x: i64) -> i64 {
  %c2 = arith.constant 2 : i64
  %r = arith.muli %x, %c2 : i64
  func.return %r : i64
}
func.func @f(%x: i64) -> i64 {
  %a = func.call @double(%x) : (i64) -> i64
  %b = func.call @double(%a) : (i64) -> i64
  func.return %b : i64
}|}
      "f" [ 3L ]
  in
  checki64 "double twice" 12L v

let test_interp_tensors () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f() -> f64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %v1 = arith.constant 2.5 : f64
  %e = tensor.empty() : tensor<2xf64>
  %t1 = tensor.insert %v1 into %e[%c0] : tensor<2xf64>
  %v2 = tensor.extract %t1[%c0] : tensor<2xf64>
  func.return %v2 : f64
}|}
  in
  let r = Mlir.Interp.run m "f" [] in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rf (2.5, _) ] -> ()
  | _ -> Alcotest.fail "tensor insert/extract broken"

let test_interp_matmul () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%a: tensor<2x2xf64>, %b: tensor<2x2xf64>) -> tensor<2x2xf64> {
  %e = tensor.empty() : tensor<2x2xf64>
  %r = linalg.matmul ins(%a, %b : tensor<2x2xf64>, tensor<2x2xf64>) outs(%e : tensor<2x2xf64>) -> tensor<2x2xf64>
  func.return %r : tensor<2x2xf64>
}|}
  in
  let t data = Mlir.Interp.Rt { shape = [| 2; 2 |]; data = Mlir.Interp.Df data } in
  let r = Mlir.Interp.run m "f" [ t [| 1.; 2.; 3.; 4. |]; t [| 5.; 6.; 7.; 8. |] ] in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rt { data = Mlir.Interp.Df out; _ } ] ->
    Alcotest.(check (array (float 1e-9))) "2x2 matmul" [| 19.; 22.; 43.; 50. |] out
  | _ -> Alcotest.fail "unexpected result"

let fast_inv_sqrt_src =
  {|
func.func @fast_inv_sqrt(%x: f32) -> f32 {
  %bits = arith.bitcast %x : f32 to i32
  %c1 = arith.constant 1 : i32
  %half_bits = arith.shrsi %bits, %c1 : i32
  %magic = arith.constant 1597463007 : i32
  %guess_bits = arith.subi %magic, %half_bits : i32
  %y0 = arith.bitcast %guess_bits : i32 to f32
  %half = arith.constant 0.5 : f32
  %three_halves = arith.constant 1.5 : f32
  %hx = arith.mulf %half, %x : f32
  %yy = arith.mulf %y0, %y0 : f32
  %t = arith.mulf %hx, %yy : f32
  %s = arith.subf %three_halves, %t : f32
  %y1 = arith.mulf %y0, %s : f32
  func.return %y1 : f32
}|}

let test_interp_quake_rsqrt () =
  (* the fast_inv_sqrt routine must approximate 1/sqrt within 0.2% *)
  let m = Mlir.Parser.parse_module fast_inv_sqrt_src in
  List.iter
    (fun x ->
      let r = Mlir.Interp.run m "fast_inv_sqrt" [ Mlir.Interp.Rf (x, Mlir.Typ.F32) ] in
      match r.Mlir.Interp.values with
      | [ Mlir.Interp.Rf (v, _) ] ->
        let expected = 1.0 /. Float.sqrt x in
        let err = Float.abs (v -. expected) /. expected in
        if err > 2e-3 then
          Alcotest.fail (Printf.sprintf "rsqrt(%g): rel err %.4f" x err)
      | _ -> Alcotest.fail "bad result")
    [ 0.25; 1.0; 2.0; 100.0; 12345.0 ]

let test_interp_while () =
  (* Collatz step count via scf.while (generic form round-trips) *)
  let m =
    roundtrip
      {|
func.func @collatz_steps(%n0: i64) -> i64 {
  %zero = arith.constant 0 : i64
  %rn, %rsteps = "scf.while"(%n0, %zero) ({
    ^bb(%n: i64, %steps: i64):
    %one = arith.constant 1 : i64
    %more = arith.cmpi sgt, %n, %one : i64
    "scf.condition"(%more, %n, %steps) : (i1, i64, i64) -> ()
  }, {
    ^bb2(%m: i64, %msteps: i64):
    %one2 = arith.constant 1 : i64
    %two = arith.constant 2 : i64
    %three = arith.constant 3 : i64
    %zero2 = arith.constant 0 : i64
    %rem = arith.remsi %m, %two : i64
    %odd = arith.cmpi ne, %rem, %zero2 : i64
    %next = scf.if %odd -> (i64) {
      %t = arith.muli %m, %three : i64
      %t1 = arith.addi %t, %one2 : i64
      scf.yield %t1 : i64
    } else {
      %h = arith.divsi %m, %two : i64
      scf.yield %h : i64
    }
    %steps1 = arith.addi %msteps, %one2 : i64
    scf.yield %next, %steps1 : i64, i64
  }) : (i64, i64) -> (i64, i64)
  func.return %rsteps : i64
}|}
  in
  let steps n =
    match (Mlir.Interp.run m "collatz_steps" [ Mlir.Interp.Ri (n, 64) ]).Mlir.Interp.values with
    | [ Mlir.Interp.Ri (v, _) ] -> v
    | _ -> Alcotest.fail "bad result"
  in
  checki64 "collatz(1)" 0L (steps 1L);
  checki64 "collatz(6)" 8L (steps 6L);
  checki64 "collatz(27)" 111L (steps 27L)

let test_interp_memref () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%x: f64) -> f64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %buf = memref.alloc() : memref<4xf64>
  memref.store %x, %buf[%c0] : memref<4xf64>
  %two = arith.constant 2.0 : f64
  %d = arith.mulf %x, %two : f64
  memref.store %d, %buf[%c1] : memref<4xf64>
  %a = memref.load %buf[%c0] : memref<4xf64>
  %b = memref.load %buf[%c1] : memref<4xf64>
  %s = arith.addf %a, %b : f64
  memref.dealloc %buf : memref<4xf64>
  func.return %s : f64
}|}
  in
  Mlir.Verifier.verify_exn m;
  (* round-trips through print/parse *)
  let m2 = Mlir.Parser.parse_module (Mlir.Printer.module_to_string m) in
  Mlir.Verifier.verify_exn m2;
  let r = Mlir.Interp.run m2 "f" [ Mlir.Interp.Rf (3.0, Mlir.Typ.F64) ] in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rf (9.0, _) ] -> ()
  | [ v ] -> Alcotest.fail (Fmt.str "memref result wrong: %a" Mlir.Interp.pp_rv v)
  | _ -> Alcotest.fail "arity"

let test_memref_rank_check () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%x: f64) {
  %c0 = arith.constant 0 : index
  %buf = memref.alloc() : memref<2x2xf64>
  memref.store %x, %buf[%c0] : memref<2x2xf64>
  func.return
}|}
  in
  checkb "rank mismatch detected" true (Mlir.Verifier.verify m <> [])

let test_interp_div_by_zero () =
  match run_i64 {|
func.func @f(%x: i64) -> i64 {
  %c0 = arith.constant 0 : i64
  %r = arith.divsi %x, %c0 : i64
  func.return %r : i64
}|} "f" [ 1L ] with
  | exception Mlir.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "division by zero must trap"

let test_interp_fuel () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f() -> i64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %n = arith.constant 100000000 : index
  %z = arith.constant 0 : i64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%a = %z) -> (i64) {
    scf.yield %a : i64
  }
  func.return %r : i64
}|}
  in
  match Mlir.Interp.run ~fuel:10_000 m "f" [] with
  | exception Mlir.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "fuel must bound execution"

let test_interp_matches_reference_prop () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"interpreter matches OCaml reference" ~count:100
       (QCheck.make
          QCheck.Gen.(
            Test_support.Gen_mlir.program_gen >>= fun p ->
            Test_support.Gen_mlir.args_gen p >>= fun args -> return (p, args)))
       (fun (p, args) ->
         let m = Test_support.Gen_mlir.to_module p in
         Test_support.Gen_mlir.run_module m args = Test_support.Gen_mlir.eval p args))

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let test_fold_constants () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f() -> i64 {
  %a = arith.constant 6 : i64
  %b = arith.constant 7 : i64
  %c = arith.muli %a, %b : i64
  func.return %c : i64
}|}
  in
  ignore (Mlir.Transforms.canonicalize m);
  let consts = Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.constant") m in
  checki "folded to one constant" 1 (List.length consts);
  match Mlir.Ir.attr (List.hd consts) "value" with
  | Some (Mlir.Attr.Int (42L, _)) -> ()
  | _ -> Alcotest.fail "wrong folded value"

let test_fold_identities () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%x: i64) -> i64 {
  %c0 = arith.constant 0 : i64
  %c1 = arith.constant 1 : i64
  %a = arith.addi %x, %c0 : i64
  %b = arith.muli %a, %c1 : i64
  func.return %b : i64
}|}
  in
  ignore (Mlir.Transforms.canonicalize m);
  let f = Option.get (Mlir.Ir.find_function m "f") in
  checki "identities collapse to return only" 1 (List.length (Mlir.Ir.func_body f).Mlir.Ir.blk_ops)

let test_cse () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%x: i64) -> i64 {
  %a = arith.muli %x, %x : i64
  %b = arith.muli %x, %x : i64
  %c = arith.addi %a, %b : i64
  func.return %c : i64
}|}
  in
  checki "one duplicate removed" 1 (Mlir.Transforms.cse m);
  Mlir.Verifier.verify_exn m

let test_cse_respects_types () =
  (* two tensor.empty of different shapes must not be merged *)
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f() -> tensor<2x2xf64> {
  %a = tensor.empty() : tensor<2x2xf64>
  %b = tensor.empty() : tensor<3x3xf64>
  func.return %a : tensor<2x2xf64>
}|}
  in
  checki "no cse across result types" 0 (Mlir.Transforms.cse m)

let test_cse_signed_zero () =
  (* 0.0 and -0.0 are different constants: [x + 0.0] and [x + -0.0]
     differ at x = -0.0 *)
  let src = In_channel.with_open_text "fixtures/signed_zero.mlir" In_channel.input_all in
  let run m =
    let r = Mlir.Interp.run m "f" [ Mlir.Interp.Rf (-0.0, Mlir.Typ.F64) ] in
    List.map
      (function
        | Mlir.Interp.Rf (x, _) -> Int64.bits_of_float x
        | v -> Alcotest.fail (Fmt.str "expected an f64, got %a" Mlir.Interp.pp_rv v))
      r.Mlir.Interp.values
  in
  let expected = run (Mlir.Parser.parse_module src) in
  checkb "input returns 0 and -0" true
    (expected = [ Int64.bits_of_float 0.0; Int64.bits_of_float (-0.0) ]);
  List.iter
    (fun (name, pass) ->
      let m = Mlir.Parser.parse_module src in
      pass m;
      Mlir.Verifier.verify_exn m;
      let constants =
        List.length (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "arith.constant") m)
      in
      checki (name ^ " keeps both constants") 2 constants;
      checkb (name ^ " output agrees bitwise on -0.0") true (run m = expected))
    [
      ("cse", fun m -> ignore (Mlir.Transforms.cse m));
      ("canonicalize", fun m -> ignore (Mlir.Transforms.canonicalize m));
    ]

let test_dce () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%x: i64) -> i64 {
  %dead1 = arith.addi %x, %x : i64
  %dead2 = arith.muli %dead1, %x : i64
  func.return %x : i64
}|}
  in
  checki "dead chain removed" 2 (Mlir.Transforms.dce m);
  Mlir.Verifier.verify_exn m

let test_dce_keeps_effects () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%x: i64) -> i64 {
  %r = "side.effect"(%x) : (i64) -> i64
  func.return %x : i64
}|}
  in
  checki "unregistered op kept" 0 (Mlir.Transforms.dce m)

let test_canonicalize_preserves_semantics_prop () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"canonicalization preserves semantics" ~count:100
       (QCheck.make
          QCheck.Gen.(
            Test_support.Gen_mlir.program_gen >>= fun p ->
            Test_support.Gen_mlir.args_gen p >>= fun args -> return (p, args)))
       (fun (p, args) ->
         let m = Test_support.Gen_mlir.to_module p in
         let before = Test_support.Gen_mlir.run_module m args in
         ignore (Mlir.Transforms.canonicalize m);
         Mlir.Verifier.verify_exn m;
         Test_support.Gen_mlir.run_module m args = before))

let test_licm_hoists () =
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%n: index, %a: f64, %b: f64) -> f64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %z = arith.constant 0.0 : f64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %z) -> (f64) {
    %inv = arith.mulf %a, %b : f64
    %dep = arith.addf %acc, %inv : f64
    scf.yield %dep : f64
  }
  func.return %r : f64
}|}
  in
  checki "one op hoisted" 1 (Mlir.Licm.run m);
  Mlir.Verifier.verify_exn m;
  (* the multiply now sits before the loop *)
  let f = Option.get (Mlir.Ir.find_function m "f") in
  let top_ops = List.map (fun (o : Mlir.Ir.op) -> o.Mlir.Ir.op_name) (Mlir.Ir.func_body f).Mlir.Ir.blk_ops in
  checkb "mulf at top level" true (List.mem "arith.mulf" top_ops);
  (* semantics: sum of a*b, n times *)
  let r =
    Mlir.Interp.run m "f"
      [ Mlir.Interp.Ri (4L, 64); Mlir.Interp.Rf (2.0, Mlir.Typ.F64); Mlir.Interp.Rf (3.0, Mlir.Typ.F64) ]
  in
  match r.Mlir.Interp.values with
  | [ Mlir.Interp.Rf (24.0, _) ] -> ()
  | _ -> Alcotest.fail "LICM broke the loop"

let test_licm_respects_dependence () =
  (* an op depending on the induction variable must not move *)
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%n: index) -> i64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %z = arith.constant 0 : i64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %z) -> (i64) {
    %iv = arith.index_cast %i : index to i64
    %dep = arith.addi %acc, %iv : i64
    scf.yield %dep : i64
  }
  func.return %r : i64
}|}
  in
  checki "nothing hoisted" 0 (Mlir.Licm.run m);
  Mlir.Verifier.verify_exn m

let test_licm_nested () =
  (* invariant code two loops deep is hoisted out of both *)
  let m =
    Mlir.Parser.parse_module
      {|
func.func @f(%n: index, %a: f64) -> f64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %z = arith.constant 0.0 : f64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %z) -> (f64) {
    %inner = scf.for %j = %c0 to %n step %c1 iter_args(%acc2 = %acc) -> (f64) {
      %inv = arith.mulf %a, %a : f64
      %dep = arith.addf %acc2, %inv : f64
      scf.yield %dep : f64
    }
    scf.yield %inner : f64
  }
  func.return %r : f64
}|}
  in
  checkb "hoisted through both loops" true (Mlir.Licm.run m >= 1);
  Mlir.Verifier.verify_exn m;
  let f = Option.get (Mlir.Ir.find_function m "f") in
  let top_ops = List.map (fun (o : Mlir.Ir.op) -> o.Mlir.Ir.op_name) (Mlir.Ir.func_body f).Mlir.Ir.blk_ops in
  checkb "mulf fully hoisted" true (List.mem "arith.mulf" top_ops)

let test_greedy_matmul_2mm_optimal () =
  let src =
    {|
func.func @mm(%a: tensor<100x10xf64>, %b: tensor<10x150xf64>, %c: tensor<150x8xf64>) -> tensor<100x8xf64> {
  %e1 = tensor.empty() : tensor<100x150xf64>
  %ab = linalg.matmul ins(%a, %b : tensor<100x10xf64>, tensor<10x150xf64>) outs(%e1 : tensor<100x150xf64>) -> tensor<100x150xf64>
  %e2 = tensor.empty() : tensor<100x8xf64>
  %abc = linalg.matmul ins(%ab, %c : tensor<100x150xf64>, tensor<150x8xf64>) outs(%e2 : tensor<100x8xf64>) -> tensor<100x8xf64>
  func.return %abc : tensor<100x8xf64>
}|}
  in
  let m = Mlir.Parser.parse_module src in
  checki "one rewrite" 1 (Mlir.Matmul_reassoc.run m);
  Mlir.Verifier.verify_exn m;
  (* the rewritten program must compute B*C first: a 10x8 intermediate *)
  let has_bc =
    Mlir.Ir.collect_ops
      (fun o ->
        o.Mlir.Ir.op_name = "linalg.matmul"
        && Mlir.Typ.shape o.Mlir.Ir.results.(0).Mlir.Ir.v_type = Some [ 10; 8 ])
      m
    <> []
  in
  checkb "B*C grouping chosen" true has_bc

let () =
  Alcotest.run "mlir"
    [
      ( "types",
        [
          Alcotest.test_case "printing and parsing" `Quick test_type_printing;
          Alcotest.test_case "roundtrip property" `Quick test_type_roundtrip_prop;
          Alcotest.test_case "parse errors" `Quick test_type_parse_errors;
        ] );
      ( "ints",
        [
          Alcotest.test_case "wrapping" `Quick test_int_wrapping;
          Alcotest.test_case "comparison predicates" `Quick test_cmp_predicates;
          Alcotest.test_case "powers of two" `Quick test_pow2;
        ] );
      ( "parser-printer",
        [
          Alcotest.test_case "paper §5.4 example" `Quick test_parse_sqrt_abs;
          Alcotest.test_case "scf.for with iter_args" `Quick test_parse_loop;
          Alcotest.test_case "generic op form" `Quick test_parse_generic;
          Alcotest.test_case "generic op with region" `Quick test_parse_generic_region;
          Alcotest.test_case "calls and matmuls" `Quick test_parse_call_and_matmul;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip property" `Quick test_roundtrip_prop;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "dominance" `Quick test_verifier_dominance;
          Alcotest.test_case "arity" `Quick test_verifier_arity;
          Alcotest.test_case "operand types" `Quick test_verifier_type_mismatch;
          Alcotest.test_case "matmul shapes" `Quick test_verifier_matmul_shapes;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "scf.for" `Quick test_interp_loop;
          Alcotest.test_case "scf.if" `Quick test_interp_if;
          Alcotest.test_case "func.call" `Quick test_interp_call;
          Alcotest.test_case "tensors" `Quick test_interp_tensors;
          Alcotest.test_case "matmul" `Quick test_interp_matmul;
          Alcotest.test_case "quake rsqrt" `Quick test_interp_quake_rsqrt;
          Alcotest.test_case "scf.while (collatz)" `Quick test_interp_while;
          Alcotest.test_case "memref ops" `Quick test_interp_memref;
          Alcotest.test_case "memref rank check" `Quick test_memref_rank_check;
          Alcotest.test_case "div by zero traps" `Quick test_interp_div_by_zero;
          Alcotest.test_case "fuel bound" `Quick test_interp_fuel;
          Alcotest.test_case "matches reference (property)" `Quick
            test_interp_matches_reference_prop;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "constant folding" `Quick test_fold_constants;
          Alcotest.test_case "identity folding" `Quick test_fold_identities;
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "cse respects result types" `Quick test_cse_respects_types;
          Alcotest.test_case "cse keeps signed zeros apart" `Quick test_cse_signed_zero;
          Alcotest.test_case "dce" `Quick test_dce;
          Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_effects;
          Alcotest.test_case "canonicalize preserves semantics (property)" `Quick
            test_canonicalize_preserves_semantics_prop;
          Alcotest.test_case "licm hoists invariants" `Quick test_licm_hoists;
          Alcotest.test_case "licm respects dependence" `Quick test_licm_respects_dependence;
          Alcotest.test_case "licm through nested loops" `Quick test_licm_nested;
          Alcotest.test_case "greedy matmul pass on 2MM" `Quick test_greedy_matmul_2mm_optimal;
        ] );
    ]
