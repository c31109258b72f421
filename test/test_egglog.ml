(* Tests for the Egglog engine: s-expressions, union-find, e-graph
   invariants, e-matching, extraction, primitives, and whole-program
   behaviour on the paper's §2.3 example. *)

open Egglog

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Sexp                                                                *)
(* ------------------------------------------------------------------ *)

let test_sexp_atoms () =
  (match Sexp.parse_string "foo 42 ?x" with
  | [ Atom "foo"; Atom "42"; Atom "?x" ] -> ()
  | _ -> Alcotest.fail "unexpected parse");
  match Sexp.parse_string {|"a string" (nested (list) "s")|} with
  | [ Str "a string"; List [ Atom "nested"; List [ Atom "list" ]; Str "s" ] ] -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_sexp_comments () =
  match Sexp.parse_string "; comment\n(a b) ; trailing\n(c)" with
  | [ List [ Atom "a"; Atom "b" ]; List [ Atom "c" ] ] -> ()
  | _ -> Alcotest.fail "comments mishandled"

let test_sexp_escapes () =
  match Sexp.parse_string {|"line\nbreak \"quoted\" back\\slash"|} with
  | [ Str s ] -> checks "escaped" "line\nbreak \"quoted\" back\\slash" s
  | _ -> Alcotest.fail "string escapes"

let test_sexp_errors () =
  let fails s =
    match Sexp.parse_string s with
    | exception Sexp.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for " ^ s)
  in
  fails "(unclosed";
  fails ")";
  fails "(mismatched]";
  fails {|"unterminated|}

let test_sexp_roundtrip () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"sexp print/parse roundtrip" ~count:200
       (QCheck.make
          (QCheck.Gen.sized (fun n ->
               let open QCheck.Gen in
               fix
                 (fun self n ->
                   if n <= 0 then
                     oneof
                       [
                         map (fun s -> Sexp.Atom ("a" ^ string_of_int s)) small_nat;
                         map (fun s -> Sexp.Str s) (string_size ~gen:printable (return 4));
                       ]
                   else
                     map (fun l -> Sexp.List l) (list_size (int_bound 4) (self (n / 2))))
                 n)))
       (fun s ->
         let printed = Sexp.to_string s in
         match Sexp.parse_string printed with [ s' ] -> s = s' | _ -> false))

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let uf = Union_find.create () in
  let a = Union_find.fresh uf and b = Union_find.fresh uf and c = Union_find.fresh uf in
  checkb "fresh distinct" false (Union_find.same uf a b);
  ignore (Union_find.union uf a b);
  checkb "a~b" true (Union_find.same uf a b);
  checkb "a!~c" false (Union_find.same uf a c);
  ignore (Union_find.union uf b c);
  checkb "transitive" true (Union_find.same uf a c)

let test_uf_props () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"union-find: random unions form consistent partition" ~count:100
       QCheck.(pair (int_bound 30) (small_list (pair (int_bound 29) (int_bound 29))))
       (fun (n, unions) ->
         let n = max 2 n in
         let uf = Union_find.create () in
         for _ = 1 to n do
           ignore (Union_find.fresh uf)
         done;
         (* model: simple set partition *)
         let repr = Array.init n Fun.id in
         let rec find i = if repr.(i) = i then i else find repr.(i) in
         List.iter
           (fun (a, b) ->
             if a < n && b < n then begin
               ignore (Union_find.union uf a b);
               repr.(find a) <- find b
             end)
           unions;
         let ok = ref true in
         for i = 0 to n - 1 do
           for j = 0 to n - 1 do
             if Union_find.same uf i j <> (find i = find j) then ok := false
           done
         done;
         !ok))

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let test_primitives () =
  let open Value in
  let eq name expected actual = checkb name true (Value.equal expected actual) in
  eq "add" (I64 5L) (Primitives.apply "+" [ I64 2L; I64 3L ]);
  eq "fadd" (F64 5.5) (Primitives.apply "+" [ F64 2.5; F64 3.0 ]);
  eq "concat" (Str "ab") (Primitives.apply "+" [ Str "a"; Str "b" ]);
  eq "log2" (I64 8L) (Primitives.apply "log2" [ I64 256L ]);
  eq "pow" (I64 256L) (Primitives.apply "pow" [ I64 2L; I64 8L ]);
  eq "cmp" (Bool true) (Primitives.apply ">=" [ F64 1.0; F64 1.0 ]);
  eq "vec-get" (I64 3L) (Primitives.apply "vec-get" [ Vec [| I64 2L; I64 3L |]; I64 1L ]);
  eq "vec-length" (I64 2L) (Primitives.apply "vec-length" [ Vec [| I64 2L; I64 3L |] ]);
  eq "neg" (I64 (-4L)) (Primitives.apply "-" [ I64 4L ]);
  eq "bits" (I64 4607182418800017408L) (Primitives.apply "f64-to-i64-bits" [ F64 1.0 ])

let test_primitive_errors () =
  let fails name args =
    match Primitives.apply name args with
    | exception Primitives.Error _ -> ()
    | v -> Alcotest.fail (Printf.sprintf "%s should fail, got %s" name (Value.to_string v))
  in
  fails "/" [ Value.I64 1L; Value.I64 0L ];
  fails "log2" [ Value.I64 0L ];
  fails "log2" [ Value.I64 (-8L) ];
  fails "vec-get" [ Value.Vec [| Value.I64 1L |]; Value.I64 5L ];
  fails "+" [ Value.I64 1L; Value.F64 1.0 ]

let test_pow_log2_props () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"pow 2 (log2 n) = n for powers of two" ~count:62
       QCheck.(int_bound 61)
       (fun k ->
         let n = Int64.shift_left 1L k in
         Value.equal
           (Primitives.apply "pow" [ Value.I64 2L; Primitives.apply "log2" [ Value.I64 n ] ])
           (Value.I64 n)))

(* ------------------------------------------------------------------ *)
(* E-graph core                                                        *)
(* ------------------------------------------------------------------ *)

let setup_graph () =
  let eg = Egraph.create () in
  Egraph.declare_sort eg "Expr";
  let f name arity =
    Egraph.declare_function eg ~name ~args:(List.init arity (fun _ -> "Expr")) ~ret:"Expr"
      ~cost:None ~merge:None ~unextractable:false
  in
  let num =
    Egraph.declare_function eg ~name:"Num" ~args:[ "i64" ] ~ret:"Expr" ~cost:None
      ~merge:None ~unextractable:false
  in
  (eg, num, f "Add" 2, f "Neg" 1)

let apply_exn eg f args =
  match Egraph.apply eg f args with
  | Some v -> v
  | None -> Alcotest.fail "apply returned None"

let test_egraph_hashcons () =
  let eg, num, add, _ = setup_graph ()  in
  let one = apply_exn eg num [| I64 1L |] in
  let one' = apply_exn eg num [| I64 1L |] in
  checkb "hashcons" true (Value.equal one one');
  let two = apply_exn eg num [| I64 2L |] in
  checkb "distinct" false (Value.equal one two);
  let s = apply_exn eg add [| one; two |] in
  let s' = apply_exn eg add [| one; two |] in
  checkb "node hashcons" true (Value.equal s s');
  checki "3 nodes" 3 (Egraph.n_nodes eg)

let test_egraph_congruence () =
  let eg, num, add, _ = setup_graph () in
  let a = apply_exn eg num [| I64 1L |] in
  let b = apply_exn eg num [| I64 2L |] in
  let fa = apply_exn eg add [| a; a |] in
  let fb = apply_exn eg add [| b; b |] in
  checkb "before union" false (Value.equal (Egraph.canon eg fa) (Egraph.canon eg fb));
  Egraph.union_values eg a b;
  Egraph.rebuild eg;
  checkb "congruence after union+rebuild" true
    (Value.equal (Egraph.canon eg fa) (Egraph.canon eg fb))

let test_egraph_deep_congruence () =
  (* chains: unioning leaves collapses towers of applications *)
  let eg, num, _, neg = setup_graph () in
  let a = ref (apply_exn eg num [| I64 1L |]) in
  let b = ref (apply_exn eg num [| I64 2L |]) in
  let base_a = !a and base_b = !b in
  for _ = 1 to 10 do
    a := apply_exn eg neg [| !a |];
    b := apply_exn eg neg [| !b |]
  done;
  Egraph.union_values eg base_a base_b;
  Egraph.rebuild eg;
  checkb "deep congruence" true (Value.equal (Egraph.canon eg !a) (Egraph.canon eg !b))

let test_egraph_vec_congruence () =
  (* e-class ids inside Vec values must canonicalize too *)
  let eg = Egraph.create () in
  Egraph.declare_sort eg "Expr";
  Egraph.declare_vec_sort eg "ExprVec" "Expr";
  let num =
    Egraph.declare_function eg ~name:"Num" ~args:[ "i64" ] ~ret:"Expr" ~cost:None
      ~merge:None ~unextractable:false
  in
  let tup =
    Egraph.declare_function eg ~name:"Tup" ~args:[ "ExprVec" ] ~ret:"Expr" ~cost:None
      ~merge:None ~unextractable:false
  in
  let a = apply_exn eg num [| I64 1L |] in
  let b = apply_exn eg num [| I64 2L |] in
  let ta = apply_exn eg tup [| Vec [| a |] |] in
  let tb = apply_exn eg tup [| Vec [| b |] |] in
  Egraph.union_values eg a b;
  Egraph.rebuild eg;
  checkb "vec congruence" true (Value.equal (Egraph.canon eg ta) (Egraph.canon eg tb))

let test_egraph_merge_conflict () =
  let eg = Egraph.create () in
  Egraph.declare_sort eg "E";
  let f =
    Egraph.declare_function eg ~name:"f" ~args:[ "i64" ] ~ret:"i64" ~cost:None
      ~merge:None ~unextractable:false
  in
  Egraph.set eg f [| I64 1L |] (I64 10L);
  Egraph.set eg f [| I64 1L |] (I64 10L);
  (* same value: fine *)
  match Egraph.set eg f [| I64 1L |] (I64 11L) with
  | exception Egraph.Error _ -> ()
  | () -> Alcotest.fail "conflicting set without :merge should fail"

let test_egraph_merge_fn () =
  let eg = Egraph.create () in
  Egraph.declare_sort eg "E";
  let f =
    Egraph.declare_function eg ~name:"f" ~args:[ "i64" ] ~ret:"i64" ~cost:None
      ~merge:
        (Some
           (fun a b ->
             match (a, b) with
             | Value.I64 x, Value.I64 y -> Value.I64 (Int64.max x y)
             | _ -> assert false))
      ~unextractable:false
  in
  Egraph.set eg f [| I64 1L |] (I64 10L);
  Egraph.set eg f [| I64 1L |] (I64 7L);
  (match Egraph.lookup eg f [| I64 1L |] with
  | Some (I64 10L) -> ()
  | v -> Alcotest.fail (Fmt.str "merge fn: got %a" Fmt.(option Value.pp) v));
  Egraph.set eg f [| I64 1L |] (I64 12L);
  match Egraph.lookup eg f [| I64 1L |] with
  | Some (I64 12L) -> ()
  | _ -> Alcotest.fail "merge fn should keep max"

let test_egraph_sort_check () =
  let eg, num, _, _ = setup_graph () in
  match Egraph.apply eg num [| F64 1.0 |] with
  | exception Egraph.Error _ -> ()
  | _ -> Alcotest.fail "sort mismatch should be rejected"

let test_congruence_prop () =
  (* random unions on a pool of leaves; after rebuild, congruence must hold
     for every pair of single-application nodes *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"congruence invariant under random unions" ~count:60
       QCheck.(small_list (pair (int_bound 7) (int_bound 7)))
       (fun unions ->
         let eg, num, _, neg = setup_graph () in
         let leaves = Array.init 8 (fun i -> apply_exn eg num [| I64 (Int64.of_int i) |]) in
         let apps = Array.map (fun l -> apply_exn eg neg [| l |]) leaves in
         List.iter (fun (i, j) -> Egraph.union_values eg leaves.(i) leaves.(j)) unions;
         Egraph.rebuild eg;
         let ok = ref true in
         for i = 0 to 7 do
           for j = 0 to 7 do
             let leq = Value.equal (Egraph.canon eg leaves.(i)) (Egraph.canon eg leaves.(j)) in
             let aeq = Value.equal (Egraph.canon eg apps.(i)) (Egraph.canon eg apps.(j)) in
             (* f(a) ≡ f(b) iff a ≡ b (no other unions were made) *)
             if leq <> aeq then ok := false
           done
         done;
         !ok))

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

let run_ok src =
  try Interp.run_program src
  with
  | Interp.Error e -> Alcotest.fail ("engine error: " ^ e)
  | Matcher.Error e -> Alcotest.fail ("match error: " ^ e)
  | Parser.Error e -> Alcotest.fail ("parse error: " ^ e)

let extract_str src =
  let _, outs = run_ok src in
  match List.find_map (function Interp.O_extracted (t, _) -> Some t | _ -> None) outs with
  | Some t -> Extract.term_to_string t
  | None -> Alcotest.fail "no extraction output"

let test_paper_example () =
  (* §2.3: (a*2)/2 simplifies to a *)
  let s =
    extract_str
      {|
(sort Expr)
(function Num (i64) Expr :cost 1)
(function Var (String) Expr :cost 1)
(function Mul (Expr Expr) Expr :cost 2)
(function Div (Expr Expr) Expr :cost 2)
(function Shl (Expr Expr) Expr :cost 1)
(let expr (Div (Mul (Var "a") (Num 2)) (Num 2)))
(rewrite (Div ?x ?x) (Num 1))
(rewrite (Mul ?x (Num 1)) ?x)
(birewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(birewrite (Div (Mul ?x ?y) ?z) (Mul ?x (Div ?y ?z)))
(run 10)
(extract expr)
|}
  in
  checks "extracts a" {|(Var "a")|} s

let test_saturation_stops () =
  let t, outs =
    run_ok
      {|
(sort E)
(function A () E)
(function B () E)
(rewrite (A) (B))
(run 100)
|}
  in
  ignore t;
  match List.find_map (function Interp.O_ran s -> Some s | _ -> None) outs with
  | Some s ->
    checkb "saturated early" true (s.Interp.iterations < 100);
    checkb "reason" true (s.Interp.stop = Interp.Saturated)
  | None -> Alcotest.fail "no run output"

let test_node_limit () =
  (* an explosive rule must be stopped by the node budget *)
  let t = Interp.create ~max_nodes:300 () in
  Interp.run_string t
    {|
(sort E)
(function Z () E)
(function S (E) E)
(rule ((= ?x (S ?e))) ((S ?x)))
(let start (S (Z)))
(run 10000)
|};
  match Interp.last_stats t with
  | Some s -> checkb "stopped by node limit" true (s.Interp.stop = Interp.Node_limit)
  | None -> Alcotest.fail "no stats"

let test_check_command () =
  let _, outs =
    run_ok
      {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(rewrite (Add ?x ?y) (Add ?y ?x))
(let a (Add (Num 1) (Num 2)))
(let b (Add (Num 2) (Num 1)))
(run 5)
(check (= a b))
|}
  in
  checkb "check passed" true (List.mem Interp.O_checked outs)

let test_check_fails () =
  match
    Interp.run_program
      {|
(sort E)
(function Num (i64) E)
(let a (Num 1))
(let b (Num 2))
(check (= a b))
|}
  with
  | exception Interp.Error _ -> ()
  | _ -> Alcotest.fail "check of distinct classes should fail"

let test_conditional_rule () =
  let s =
    extract_str
      {|
(sort E)
(function Num (i64) E)
(function Div (E E) E :cost 10)
(function Shr (E E) E :cost 1)
(function Var (String) E)
(rule ((= ?lhs (Div ?x (Num ?n))) (= ?k (log2 ?n)) (= (pow 2 ?k) ?n))
      ((union ?lhs (Shr ?x (Num ?k)))))
(let e (Div (Var "x") (Num 64)))
(run 5)
(extract e)
|}
  in
  checks "div 64 -> shr 6" {|(Shr (Var "x") (Num 6))|} s

let test_conditional_rule_negative () =
  (* 100 is not a power of two: the rule must not fire *)
  let s =
    extract_str
      {|
(sort E)
(function Num (i64) E)
(function Div (E E) E :cost 10)
(function Shr (E E) E :cost 1)
(function Var (String) E)
(rule ((= ?lhs (Div ?x (Num ?n))) (= ?k (log2 ?n)) (= (pow 2 ?k) ?n))
      ((union ?lhs (Shr ?x (Num ?k)))))
(let e (Div (Var "x") (Num 100)))
(run 5)
(extract e)
|}
  in
  checks "stays a division" {|(Div (Var "x") (Num 100))|} s

let test_table_functions () =
  let _, outs =
    run_ok
      {|
(sort E)
(function Leaf (String) E)
(function depth (E) i64 :merge (max old new))
(function Pair (E E) E)
(rule ((= ?e (Leaf ?s))) ((set (depth ?e) 0)))
(rule ((= ?e (Pair ?a ?b)) (= ?da (depth ?a)) (= ?db (depth ?b)))
      ((set (depth ?e) (+ 1 (max ?da ?db)))))
(let t (Pair (Pair (Leaf "a") (Leaf "b")) (Leaf "c")))
(run 10)
(check (= (depth t) 2))
|}
  in
  checkb "depth computed" true (List.mem Interp.O_checked outs)

let test_unstable_cost () =
  let s =
    extract_str
      {|
(sort E)
(function A () E)
(function B () E)
(let x (A))
(union x (B))
(rule ((= ?e (A))) ((unstable-cost (A) 100)))
(run 3)
(extract x)
|}
  in
  checks "override steers extraction" "(B)" s

let test_extract_shared_physical () =
  (* shared subterms must be physically equal in the extraction *)
  let _, outs =
    run_ok
      {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(let shared (Add (Num 1) (Num 2)))
(let top (Add shared shared))
(extract top)
|}
  in
  match List.find_map (function Interp.O_extracted (t, _) -> Some t | _ -> None) outs with
  | Some { t_kind = Extract.Node (_, [ a; b ]); _ } -> checkb "physical sharing" true (a == b)
  | _ -> Alcotest.fail "unexpected term shape"

let test_extract_cycle () =
  (* a class whose only derivation is cyclic has no finite cost *)
  let t = Interp.create () in
  Interp.run_string t
    {|
(sort E)
(function F (E) E)
(function A () E)
(let a (A))
(let fa (F a))
(union a fa)
(run 1)
|};
  Egraph.rebuild (Interp.egraph t);
  (* the merged class still contains (A), so extraction succeeds and never
     picks the cyclic F node *)
  let term, _ = Extract.extract (Interp.egraph t) (Interp.global t "a") in
  checks "picks the base case" "(A)" (Extract.term_to_string term)

let test_extract_cost_value () =
  let _, outs =
    run_ok
      {|
(sort E)
(function Num (i64) E :cost 1)
(function Add (E E) E :cost 5)
(let e (Add (Num 1) (Num 2)))
(extract e)
|}
  in
  match List.find_map (function Interp.O_extracted (_, c) -> Some c | _ -> None) outs with
  | Some c -> checki "cost 5+1+1" 7 c
  | None -> Alcotest.fail "no extraction"

(* Five children of infinite cost must not wrap the sum around to a
   negative cost that beats the class's real base case. *)
let overflow_src arity =
  Printf.sprintf
    {|
(datatype E (A) (B) (Loop E) (Big %s))
(function Hid () E :unextractable ())
(let h (Hid))
(union h (Loop h))
(let big (Big %s))
(union big (B))
(extract big)
|}
    (String.concat " " (List.init arity (fun _ -> "E")))
    (String.concat " " (List.init arity (fun _ -> "h")))

let test_extract_cost_saturates () =
  List.iter
    (fun arity ->
      let _, outs = run_ok (overflow_src arity) in
      match List.find_map (function Interp.O_extracted (t, c) -> Some (t, c) | _ -> None) outs with
      | Some (t, c) ->
        checks (Printf.sprintf "%d-ary Big: the base case" arity) "(B)" (Extract.term_to_string t);
        checki "cost" 1 c
      | None -> Alcotest.fail "no extraction")
    [ 3; 5 ]

(* c, d and e all cost 1 and reach each other through free e-nodes, so
   what a class extracts to depends on which classes are being extracted
   at the time (a candidate that cycles back into one is dropped), and
   therefore on the order c's two candidates are tried in: G(e) before
   F(d), the last row first.  F(d) first would give (F (R (K (X)))). *)
let candidate_order_src =
  {|
(datatype T (X :cost 1) (R T :cost 0) (H T :cost 0) (Q T :cost 0) (K T :cost 0)
            (P T :cost 0) (F T :cost 0) (G T :cost 0))
(let x (X))
(let d (Q x))
(let e (K x))
(union d (R e))
(union e (H d))
(let c (F d))
(union c (G e))
(union d (P c))
|}

let test_extract_candidate_order () =
  List.iter
    (fun (root, want) ->
      checks root want (extract_str (candidate_order_src ^ "(extract " ^ root ^ ")")))
    [ ("c", "(F (Q (X)))"); ("d", "(R (K (X)))"); ("e", "(H (Q (X)))") ]

(* A negative cost on a cyclic class would let the cost fixpoint lower the
   class forever; each form must be an error instead. *)
let cyclic_src = {|
(let a (A))
(union a (F a))
|}

let test_negative_cost_rejected () =
  let neg_decl = "(datatype E (A) (F E :cost -5))" ^ cyclic_src ^ "(extract a)" in
  (match Interp.run_program neg_decl with
  | _ -> Alcotest.fail "negative :cost accepted"
  | exception Egraph.Error m -> checkb "names the cost" true (String.length m > 0));
  (match Check.check_program ~env:(Check.create_env ()) neg_decl with
  | [ { code = "negative-cost"; span = Some { sp_start; _ }; _ } ] ->
    checki "located at the cost: line" 1 sp_start.line;
    checki "column" 28 sp_start.col
  | ds -> Alcotest.failf "expected one negative-cost diagnostic, got %a" Diag.pp_list ds);
  let decl = "(datatype E (A) (F E))" ^ cyclic_src in
  (match Interp.run_program (decl ^ "(unstable-cost (F a) -5) (extract a)") with
  | _ -> Alcotest.fail "negative unstable-cost accepted"
  | exception Egraph.Error _ -> ());
  (* from a cost rule: an i64 product that wraps to a negative cost
     (2^32 * (2^32 - 1) = -2^32 mod 2^64) is a saturation fault, and
     extraction still terminates *)
  let t = Interp.create () in
  Interp.run_string t
    (decl
   ^ "(rule ((= ?e (F ?x))) ((unstable-cost (F ?x) (* 4294967296 4294967295))))");
  (match (Interp.run t 3).stop with
  | Fault d -> checks "saturation fault" "saturation-fault" d.code
  | stop -> Alcotest.failf "expected a fault, got %a" Interp.pp_stop_reason stop);
  Interp.run_string t "(extract a)";
  match Interp.last_extracted t with
  | Some (term, _) -> checks "base case" "(A)" (Extract.term_to_string term)
  | None -> Alcotest.fail "no extraction"

(* Cost arithmetic is checked: a product that wraps past 2^63, or an i64
   cost too large for an int, is a [cost-overflow] error instead of a
   small or negative cost. *)
let test_cost_overflow () =
  let mentions_overflow m =
    let needle = "cost-overflow" in
    let n = String.length needle in
    let rec at i = i + n <= String.length m && (String.sub m i n = needle || at (i + 1)) in
    at 0
  in
  let decl = "(datatype E (A) (F E))" ^ cyclic_src in
  (* 3037000500^2 wraps to 145474192 *)
  let t = Interp.create () in
  Interp.run_string t
    (decl ^ "(rule ((= ?e (F ?x))) ((unstable-cost (F ?x) (* 3037000500 3037000500))))");
  (match (Interp.run t 3).stop with
  | Fault d ->
    checks "saturation fault" "saturation-fault" d.code;
    checkb "names cost-overflow" true (mentions_overflow d.message)
  | stop -> Alcotest.failf "expected a fault, got %a" Interp.pp_stop_reason stop);
  (* 2^62 is a valid i64 but not an OCaml int *)
  match Interp.run_program (decl ^ "(unstable-cost (F a) 4611686018427387904)") with
  | _ -> Alcotest.fail "out-of-range unstable-cost accepted"
  | exception Interp.Error m -> checkb "names cost-overflow" true (mentions_overflow m)

(* Extraction sums costs saturating at [Egraph.cost_cap]: a base cost at
   the cap is rejected where it is declared or set, and a class whose
   every term sums to the cap is a [cost-overflow], not a cycle. *)
let test_cost_cap () =
  let mentions needle m =
    let n = String.length needle in
    let rec at i = i + n <= String.length m && (String.sub m i n = needle || at (i + 1)) in
    at 0
  in
  let cap = Egraph.cost_cap in
  let decl = "(datatype E (A) (F E)) (let a (A))" in
  List.iter
    (fun c ->
      match
        Interp.run_program (Printf.sprintf "%s (unstable-cost (F a) %d) (extract (F a))" decl c)
      with
      | _ -> Alcotest.failf "unstable-cost %d accepted" c
      | exception Egraph.Error m -> checkb "names cost-overflow" true (mentions "cost-overflow" m))
    [ cap; max_int ];
  let at_cap = Printf.sprintf "(datatype E (A :cost %d))" cap in
  (match Check.check_program ~env:(Check.create_env ()) at_cap with
  | [ { code = "cost-overflow"; _ } ] -> ()
  | ds -> Alcotest.failf "expected one cost-overflow diagnostic, got %a" Diag.pp_list ds);
  (match Interp.run_program at_cap with
  | _ -> Alcotest.fail ":cost at the cap accepted"
  | exception Egraph.Error m -> checkb "names cost-overflow" true (mentions "cost-overflow" m));
  (* just below the cap is accepted, and with its child's cost 1 the
     term's sum reaches the cap: an acyclic graph, so not "cyclic" *)
  (match
     Interp.run_program (Printf.sprintf "%s (unstable-cost (F a) %d) (extract (F a))" decl (cap - 1))
   with
  | _ -> Alcotest.fail "a term summing to the cap extracted"
  | exception Extract.Error m ->
    checkb "names cost-overflow" true (mentions "cost-overflow" m);
    checkb "not called cyclic" false (mentions "cyclic" m));
  (* a class with no term at all keeps the cycle message *)
  match
    Interp.run_program
      "(datatype E (F E)) (function Hid () E :unextractable ()) (let h (Hid)) (union h (F h)) \
       (extract h)"
  with
  | _ -> Alcotest.fail "a cyclic class extracted"
  | exception Extract.Error m -> checkb "cyclic" true (mentions "cyclic" m)

let test_rule_creates_nodes () =
  (* actions instantiating new terms must grow the e-graph *)
  let t = Interp.create () in
  Interp.run_string t
    {|
(sort E)
(function Num (i64) E)
(function Twice (E) E)
(rule ((= ?e (Num ?n)) (< ?n 3)) ((let m (+ ?n 1)) (Num m)))
(let z (Num 0))
(run 10)
(check (Num 3))
|};
  checkb "chain of nodes created" true (List.mem Interp.O_checked (Interp.outputs t))

let test_global_shadowing_safe () =
  (* a global named like a rule variable must not capture: ?x is a pattern
     var even if a global x exists *)
  let s =
    extract_str
      {|
(sort E)
(function Num (i64) E)
(function Wrap (E) E :cost 5)
(let x (Num 42))
(rewrite (Wrap ?x) ?x)
(let e (Wrap (Num 7)))
(run 5)
(extract e)
|}
  in
  checks "no capture" "(Num 7)" s

let test_wildcard_pattern () =
  let _, outs =
    run_ok
      {|
(sort E)
(function Pair (E E) E)
(function Num (i64) E)
(relation has-pair (E))
(rule ((= ?e (Pair ? ?))) ((has-pair ?e)))
(let p (Pair (Num 1) (Num 2)))
(run 3)
(check (has-pair p))
|}
  in
  checkb "wildcards match" true (List.mem Interp.O_checked outs);
  (* a match is found once however many rows witness it: rows that differ
     only in a wildcard column, or only in the compiler's aux variables a
     residual reads *)
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (A) (B) (C) (P E E) (Add E E))
(function val (E) i64)
(relation Q (E))
(relation hit (E))
(let a (A))
(P a (B))
(P a (C))
(set (val (Add a (B))) 1)
(set (val (Add a (C))) 2)
(rule ((= ?e (P ?x _))) ((Q ?x)))
(rule ((> (val (Add ?y _)) 0)) ((hit ?y)))
(run 2)|};
  Alcotest.(check (list (pair string int)))
    "matches per rule" [ ("rule-1", 1); ("rule-2", 1) ]
    (List.map (fun s -> (s.Interp.rs_name, s.rs_matches)) (Interp.rule_stats t))

let test_immediate_rebuild_ablation () =
  (* both rebuild strategies must produce the same saturated e-graph *)
  let src =
    {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(function Mul (E E) E)
(rewrite (Add ?x ?y) (Add ?y ?x))
(rewrite (Mul (Add ?x ?y) ?z) (Add (Mul ?x ?z) (Mul ?y ?z)))
(let e (Mul (Add (Num 1) (Num 2)) (Add (Num 3) (Num 4))))
(run 6)
|}
  in
  let t1 = Interp.create () in
  Interp.run_string t1 src;
  let t2 = Interp.create () in
  (Interp.egraph t2).Egraph.immediate_rebuild <- true;
  Interp.run_string t2 src;
  checki "same node count under both rebuild strategies"
    (Egraph.n_nodes (Interp.egraph t1))
    (Egraph.n_nodes (Interp.egraph t2))

(* The ablation flag acts in the code-level write: a compiled rule's
   [set] that merges two classes rebuilds at once, as a top-level one
   does. *)
let test_immediate_rebuild_set_codes () =
  let t = Interp.create () in
  Interp.run_string t "(datatype E (A) (B) (F E))\n(let a (A))\n(let b (B))\n(let fa (F a))";
  let eg = Interp.egraph t in
  eg.Egraph.immediate_rebuild <- true;
  let code x = Arena.encode (Egraph.pool eg) (Interp.global t x) in
  Egraph.set_codes eg (Egraph.find_func eg (Symbol.intern "F")) [| code "a" |] (code "b");
  checkb "no pending union" false eg.Egraph.pending_unions;
  checkb "(F a) and b merged" true
    (Egraph.canon eg (Interp.global t "fa") = Egraph.canon eg (Interp.global t "b"))

let facts_of src =
  match Parser.parse_program ("(rule " ^ src ^ " ())") with
  | [ Ast.C_rule { facts; _ } ] -> facts
  | _ -> Alcotest.fail "bad fact syntax"

let test_rulesets () =
  (* rules in a named ruleset only fire when that ruleset runs *)
  let t = Interp.create () in
  Interp.run_string t
    {|
(sort E)
(function A () E)
(function B () E)
(function C () E)
(ruleset phase2)
(rewrite (A) (B))
(rewrite (B) (C) :ruleset phase2)
(let x (A))
(run 10)
|};
  let holds src = Interp.query t (facts_of src) <> [] in
  checkb "default ruleset ran" true (holds "((= x (B)))");
  checkb "phase2 did not run" false (holds "((= x (C)))");
  Interp.run_string t "(run 10 phase2)";
  Interp.run_string t "(check (= x (C)))";
  checkb "phase2 ran on demand" true (List.mem Interp.O_checked (Interp.outputs t))

let test_unknown_ruleset_rejected () =
  match Interp.run_program "(rewrite (f) (f) :ruleset nope)" with
  | exception Interp.Error _ -> ()
  | exception Egraph.Error _ -> ()
  | _ -> Alcotest.fail "undeclared ruleset must be rejected"

let test_push_pop () =
  let t = Interp.create () in
  Interp.run_string t
    {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(let a (Add (Num 1) (Num 2)))
(let b (Num 3))
(push)
(union a b)
(check (= a b))
(pop)
|};
  (* after pop, the union is gone *)
  (match Interp.run_string t "(check (= a b))" with
  | exception Interp.Error _ -> ()
  | () -> Alcotest.fail "pop must undo the union");
  (* and the engine still works *)
  Interp.run_string t "(let c (Num 4))";
  checkb "engine usable after pop" true (Interp.global_opt t "c" <> None)

(* A base engine's program: declarations, rows, globals, a cost
   override, a vector pooled with e-classes inside, two rules, and, as
   in the prelude a pipeline forks, about a hundred tables nothing writes
   (over 64, so the tables' hash order depends on how they are copied).
   No [run]. *)
let fork_base_src =
  {|
(datatype Math (Num i64) (Var String) (Add Math Math) (Mul Math Math))
(sort MathVec (Vec Math))
(function Pack (MathVec) Math)
(relation Seen (Math))
(let two (Num 2))
(let x (Var "x"))
(let e (Add two x))
(let p (Pack (vec-of two x)))
(unstable-cost (Add two x) 7)
(rewrite (Add ?a ?b) (Add ?b ?a))
(rule ((= ?m (Mul ?a (Num 1)))) ((union ?m ?a)))
|}
  ^ String.concat "\n" (List.init 100 (Printf.sprintf "(function Pad%d () Math)"))

(* What one forked engine does: insert into the table the base never
   wrote, union two classes, intern a new literal, bind a global,
   register a rule, run, extract. *)
let fork_more_src =
  {|
(Seen two)
(union x (Num 9))
(let big (Mul (Num 123456) (Num 1)))
(rule ((Seen ?v)) ((Mul ?v (Num 1))))
(run 10)
(extract e)
|}

(* Everything a fork could leak into: rows per table, nodes, classes,
   union-find size, pool size, the globals, a cost override, a lookup in
   the never-written table, and each rule's name and counts.  Plus the
   order rebuild walks the tables in, which a copy must keep. *)
let engine_state t =
  let eg = Interp.egraph t in
  let v = Interp.global_opt t in
  let func name = Egraph.find_func eg (Symbol.intern name) in
  let rows =
    List.map
      (fun f -> Printf.sprintf "%s:%d" (Symbol.name f.Egraph.sym) (Arena.n_live f.Egraph.store))
      (Egraph.functions eg)
  in
  let walk = Symbol.Tbl.fold (fun sym _ acc -> Symbol.name sym :: acc) eg.Egraph.funcs [] in
  let globals =
    List.map
      (fun x -> match v x with Some v -> Fmt.str "%s=%a" x Value.pp v | None -> x ^ "=-")
      [ "two"; "x"; "e"; "p"; "big" ]
  in
  let two = Option.get (v "two") and x = Option.get (v "x") in
  let cost = Egraph.cost_override eg (func "Add") [| two; x |] in
  let seen = Egraph.lookup eg (func "Seen") [| two |] in
  let rules =
    List.map
      (fun (s : Interp.rule_stat) ->
        Printf.sprintf "%s:%d/%d" s.rs_name s.rs_searches s.rs_matches)
      (Interp.rule_stats t)
  in
  String.concat " "
    (rows @ ("walk:" :: walk) @ globals @ rules
    @ [
        Printf.sprintf "nodes=%d classes=%d uf=%d pool=%d cost=%s seen=%b" (Egraph.n_nodes eg)
          (Egraph.n_classes eg)
          (Union_find.size (Egraph.uf eg))
          (Arena.pool_memory_words (Egraph.pool eg))
          (match cost with Some c -> string_of_int c | None -> "-")
          (seen <> None);
      ])

(* What a run of [fork_more_src] shows: its run and rule statistics and
   its extraction. *)
let run_summary t =
  let s = Option.get (Interp.last_stats t) in
  let term, cost = Option.get (Interp.last_extracted t) in
  Fmt.str "%d iters %d matches %a peak %d | %s cost %d | %s" s.Interp.iterations
    s.Interp.matches Interp.pp_stop_reason s.Interp.stop s.Interp.peak_nodes
    (Extract.term_to_string term) cost (engine_state t)

let test_fork_independent () =
  let base = Interp.create () in
  Interp.run_string base fork_base_src;
  let before = engine_state base in
  let fork () = Interp.fork ~limits:(Interp.limits base) base in
  let f1 = fork () in
  checks "a fork starts as its base" before (engine_state f1);
  Interp.run_string f1 fork_more_src;
  checkb "the fork saturated" true
    (Interp.stopped_saturated (Option.get (Interp.last_stats f1)).Interp.stop);
  checks "the base is untouched" before (engine_state base);
  checkb "nothing of the fork's run reached the base" true
    (Interp.last_stats base = None && Interp.outputs base = []);
  let f2 = fork () in
  checks "a second fork starts as the base" before (engine_state f2);
  (* the same as a fresh engine replaying the base's program *)
  let fresh = Interp.create () in
  Interp.run_string fresh (fork_base_src ^ fork_more_src);
  checks "fork = create + replay" (run_summary fresh) (run_summary f1);
  Interp.run_string f2 fork_more_src;
  checks "the second fork runs as the first" (run_summary f1) (run_summary f2);
  checks "the base is still untouched" before (engine_state base)

(* Forks of a base that compiled its rules ahead: the forks run in turns,
   one saturation iteration at a time, so every plan the base compiled
   serves both forks back and forth.  A third fork declares a function
   first.  Each must run as a fresh engine replaying its program does,
   compile only the rule it registered itself, and leave the base as it
   was. *)
let test_fork_compiled_plans () =
  let base = Interp.create () in
  Interp.run_string base fork_base_src;
  Interp.compile_rules base;
  checki "the base compiled its two rules" 2 (Interp.compiled_rules base);
  Interp.compile_rules base;
  checki "compiling again compiles nothing" 2 (Interp.compiled_rules base);
  let before = engine_state base in
  let fork () = Interp.fork ~limits:(Interp.limits base) base in
  let runs = [ "(run 1)"; "(run 1)"; "(run 10)\n(extract e)" ] in
  let f1_src =
    {|
(Seen two)
(union x (Num 9))
(let big (Mul (Num 123456) (Num 1)))
(rule ((Seen ?v)) ((Mul ?v (Num 1))))
|}
  and f2_src = {|(let y (Add (Var "y") (Mul x (Num 1))))|}
  and f3_src =
    {|
(function Extra (Math) Math)
(let z (Extra (Mul (Num 5) (Num 1))))
|}
  in
  let f1 = fork () and f2 = fork () in
  Interp.run_string f1 f1_src;
  Interp.run_string f2 f2_src;
  List.iter
    (fun step ->
      Interp.run_string f1 step;
      Interp.run_string f2 step)
    runs;
  let f3 = fork () in
  Interp.run_string f3 (String.concat "\n" (f3_src :: runs));
  let fresh src =
    let t = Interp.create () in
    Interp.run_string t (String.concat "\n" (fork_base_src :: src :: runs));
    t
  in
  List.iter
    (fun (name, f, src, own) ->
      checks (name ^ " = create + replay") (run_summary (fresh src)) (run_summary f);
      checki (name ^ " compiled only its own rules") own (Interp.compiled_rules f))
    [ ("fork 1", f1, f1_src, 1); ("fork 2", f2, f2_src, 0); ("fork 3", f3, f3_src, 0) ];
  checkb "the forks' rules matched" true
    (List.for_all
       (fun f ->
         List.exists (fun (s : Interp.rule_stat) -> s.rs_matches > 0) (Interp.rule_stats f))
       [ f1; f2; f3 ]);
  checki "the base compiled nothing more" 2 (Interp.compiled_rules base);
  (* the plans a fork searched with are its own instances: once the fork
     is gone, nothing of the live base keeps its e-graph alive *)
  let gone =
    let f = fork () in
    Interp.run_string f (String.concat "\n" (f2_src :: runs));
    let w = Weak.create 1 in
    Weak.set w 0 (Some (Interp.egraph f));
    w
  in
  Gc.full_major ();
  checkb "a finished fork's e-graph is freed" true (Weak.get gone 0 = None);
  checks "the base is untouched" before (engine_state base)

(* Rules prepared once against a base and spliced into its forks register
   what running their commands would: the same rules, [rule-N] numbers
   and keys, after the fork's own.  A fork that registered one of them
   itself gets the commands run instead. *)
let test_prepared_rules () =
  let base = Interp.create () in
  Interp.run_string base fork_base_src;
  let prepared_src =
    {|
(rule ((= ?e (Var ?s))) ((Seen ?e)))
(rule ((= ?m (Mul ?a ?b))) ((union ?m (Mul ?b ?a))))
(rule ((Seen ?v)) ((Mul ?v (Num 1))) :name "seen-mul")
|}
  in
  Interp.compile_rules base;
  let p = Interp.prepare_rules base (Parser.parse_program prepared_src) in
  checki "the base's rules and the prepared ones compiled" 5 (Interp.compiled_rules base);
  let before = engine_state base in
  let own = {|(rule ((= ?e (Num ?n))) ((Seen ?e)))|} in
  let names t = List.map (fun (s : Interp.rule_stat) -> s.rs_name) (Interp.rule_stats t) in
  let check_fork name own =
    let f = Interp.fork ~limits:(Interp.limits base) base in
    Interp.run_string f own;
    Interp.add_prepared f p;
    (* registering a spliced rule again is a no-op, as after running it *)
    Interp.run_string f prepared_src;
    Interp.run_string f "(run 10)\n(extract e)";
    let fresh = Interp.create () in
    Interp.run_string fresh
      (String.concat "\n" [ fork_base_src; own; prepared_src; prepared_src; "(run 10)\n(extract e)" ]);
    checks (name ^ ": rules") (String.concat " " (names fresh)) (String.concat " " (names f));
    checks (name ^ ": run") (run_summary fresh) (run_summary f);
    f
  in
  let f = check_fork "spliced" own in
  checki "a spliced rule runs on its prepared plan" 1 (Interp.compiled_rules f);
  let g = check_fork "its own copy first" ("(rule ((Seen ?v)) ((Mul ?v (Num 1))) :name \"seen-mul\")\n" ^ own) in
  checkb "the commands ran instead" true (Interp.compiled_rules g > 2);
  checks "the base is untouched" before (engine_state base)

let test_pop_without_push () =
  match Interp.run_program "(pop)" with
  | exception Interp.Error _ -> ()
  | _ -> Alcotest.fail "pop without push must fail"

let test_push_pop_preserves_costs () =
  let t = Interp.create () in
  Interp.run_string t
    {|
(sort E)
(function A () E)
(function B () E)
(let x (A))
(union x (B))
(unstable-cost (A) 100)
(push)
(unstable-cost (B) 1000)
(pop)
(extract x)
|};
  match Interp.last_extracted t with
  | Some (term, _) -> Alcotest.(check string) "B wins after pop" "(B)" (Extract.term_to_string term)
  | None -> Alcotest.fail "no extraction"

(* Overrides whose nodes collide after a merge keep the cheaper cost,
   whichever was set first, also where the merged class is an element of
   a vector argument; push/pop and forks keep overrides apart. *)
let test_overrides_under_merges () =
  let decls =
    {|(datatype E (A) (B) (C) (F E :cost 10))
(sort Es (Vec E))
(function H (Es) E :cost 10)
(let a (A))
(let b (B))
|}
  in
  let cost t e =
    Interp.run_string t ("(extract " ^ e ^ ")");
    snd (Option.get (Interp.last_extracted t))
  in
  let engine src =
    let t = Interp.create () in
    Interp.run_string t (decls ^ src);
    t
  in
  let fa5 = "(unstable-cost (F a) 5)" and fb3 = "(unstable-cost (F b) 3)" in
  List.iter
    (fun (name, src) -> checki name 4 (cost (engine (src ^ "(union a b)")) "(F a)"))
    [ ("(F a) first", fa5 ^ fb3); ("(F b) first", fb3 ^ fa5) ];
  let ha5 = "(unstable-cost (H (vec-of a (C))) 5)" and hb3 = "(unstable-cost (H (vec-of b (C))) 3)" in
  List.iter
    (fun (name, src) -> checki name 5 (cost (engine (src ^ "(union a b)")) "(H (vec-of a (C)))"))
    [ ("vector, a first", ha5 ^ hb3); ("vector, b first", hb3 ^ ha5) ];
  let t = engine (fa5 ^ fb3) in
  Interp.run_string t "(push) (union a b)";
  checki "merged inside the push" 4 (cost t "(F a)");
  Interp.run_string t "(pop)";
  checki "apart after the pop" 6 (cost t "(F a)");
  let f = Interp.fork ~limits:(Interp.limits t) t in
  Interp.run_string f "(unstable-cost (F a) 1)";
  checki "the fork's own override" 2 (cost f "(F a)");
  checki "the base keeps its own" 6 (cost t "(F a)");
  Interp.run_string t "(union a b)";
  checki "the base's merge" 4 (cost t "(F a)");
  checki "the fork unmerged" 2 (cost f "(F a)");
  checki "the fork's (F b)" 4 (cost f "(F b)")

let test_extract_variants () =
  let _, outs =
    run_ok
      {|
(sort E)
(function Num (i64) E)
(function Mul (E E) E :cost 3)
(function Shl (E E) E :cost 1)
(function Var (String) E)
(let e (Mul (Var "x") (Num 2)))
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(run 5)
(extract e 5)
|}
  in
  match List.find_map (function Interp.O_variants vs -> Some vs | _ -> None) outs with
  | Some [ (t1, c1); (t2, c2) ] ->
    checkb "cheapest first" true (c1 <= c2);
    checks "shift first" {|(Shl (Var "x") (Num 1))|} (Extract.term_to_string t1);
    checks "mul second" {|(Mul (Var "x") (Num 2))|} (Extract.term_to_string t2)
  | Some vs -> Alcotest.fail (Printf.sprintf "expected 2 variants, got %d" (List.length vs))
  | None -> Alcotest.fail "no variants output"

let test_lattice_analysis () =
  (* interval-style analysis with lattice merges (paper §9 direction) *)
  let _, outs =
    run_ok
      {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(function lo (E) i64 :merge (max old new))
(function hi (E) i64 :merge (min old new))
(rule ((= ?e (Num ?v))) ((set (lo ?e) ?v) (set (hi ?e) ?v)))
(rule ((= ?e (Add ?x ?y)) (= ?xl (lo ?x)) (= ?yl (lo ?y))
       (= ?xh (hi ?x)) (= ?yh (hi ?y)))
      ((set (lo ?e) (+ ?xl ?yl)) (set (hi ?e) (+ ?xh ?yh))))
(let e (Add (Num 3) (Add (Num 4) (Num 5))))
(run 10)
(check (= (lo e) 12) (= (hi e) 12))
|}
  in
  checkb "ranges computed" true (List.mem Interp.O_checked outs)

(* random term-rewriting systems over a tiny signature, for scheduler
   equivalence testing *)
let random_trs_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  (* random pattern of depth <= 2 over Add/Mul/Neg/Num/vars *)
  let rec pat depth vars =
    if depth <= 0 then oneof [ oneofl vars; map (Printf.sprintf "(Num %d)") (int_bound 3) ]
    else
      frequency
        [
          (2, oneofl vars);
          (1, map (Printf.sprintf "(Num %d)") (int_bound 3));
          ( 3,
            let* a = pat (depth - 1) vars in
            let* b = pat (depth - 1) vars in
            oneofl
              [ Printf.sprintf "(Add %s %s)" a b; Printf.sprintf "(Mul %s %s)" a b ] );
          (2, map (Printf.sprintf "(Neg %s)") (pat (depth - 1) vars));
        ]
  in
  (* LHS must be constructor-rooted (a bare-variable LHS is rejected) *)
  let rooted_pat vars =
    let open QCheck.Gen in
    frequency
      [
        ( 3,
          let* a = pat 1 vars in
          let* b = pat 1 vars in
          oneofl [ Printf.sprintf "(Add %s %s)" a b; Printf.sprintf "(Mul %s %s)" a b ] );
        (2, map (Printf.sprintf "(Neg %s)") (pat 1 vars));
      ]
  in
  let rule =
    let* lhs = rooted_pat [ "?x"; "?y" ] in
    (* rhs only uses vars that occur in lhs; using ?x/?y when absent from
       lhs would be unsound for matching, so restrict rhs vars to lhs's *)
    let vars_in s = List.filter (fun v ->
      let rec contains i = i + String.length v <= String.length s
        && (String.sub s i (String.length v) = v || contains (i+1)) in contains 0)
      [ "?x"; "?y" ] in
    let vs = match vars_in lhs with [] -> [ "(Num 0)" ] | vs -> vs in
    let* rhs = pat 2 vs in
    return (Printf.sprintf "(rewrite %s %s)" lhs rhs)
  in
  let* n_rules = int_range 1 4 in
  let* rules = list_repeat n_rules rule in
  let* seed_expr = pat 2 [ "(Num 7)" ] in
  return
    (Printf.sprintf
       {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(function Mul (E E) E)
(function Neg (E) E)
%s
(let root %s)
(run 6)
|}
       (String.concat "\n" rules) seed_expr)

let test_dirty_skip_equivalence () =
  (* the dirty-table scheduler must reach exactly the same saturated
     e-graph as full rescanning, on random rewriting systems *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"dirty-skip = full rescan" ~count:60
       (QCheck.make random_trs_gen)
       (fun src ->
         let run disable =
           let t = Interp.create ~max_nodes:3_000 () in
           Interp.set_disable_dirty_skip t disable;
           (try Interp.run_string t src with Interp.Error _ -> ());
           Egraph.rebuild (Interp.egraph t);
           (Egraph.n_nodes (Interp.egraph t), Egraph.n_classes (Interp.egraph t))
         in
         run true = run false))

let test_seminaive_equivalence () =
  (* seminaive e-matching must reach exactly the same saturated e-graph
     as full re-matching, on random rewriting systems *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"seminaive = naive" ~count:60
       (QCheck.make random_trs_gen)
       (fun src ->
         let run naive =
           let t = Interp.create ~max_nodes:3_000 () in
           Interp.set_naive_matching t naive;
           (try Interp.run_string t src with Interp.Error _ -> ());
           Egraph.rebuild (Interp.egraph t);
           (Egraph.n_nodes (Interp.egraph t), Egraph.n_classes (Interp.egraph t))
         in
         run true = run false))

let test_seminaive_extraction_identical () =
  (* both matching modes must extract the same term from the paper's
     running example *)
  let src =
    {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(function Mul (E E) E)
(function Shl (E E) E)
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(rewrite (Add ?x ?x) (Mul ?x (Num 2)))
(let root (Add (Mul (Num 3) (Num 2)) (Mul (Num 3) (Num 2))))
(run 10)
(extract root)
|}
  in
  let extract naive =
    let t = Interp.create () in
    Interp.set_naive_matching t naive;
    Interp.run_string t src;
    match Interp.last_extracted t with
    | Some (term, cost) -> (Fmt.str "%a" Extract.pp_term term, cost)
    | None -> Alcotest.fail "no extraction"
  in
  let e_sem = extract false and e_naive = extract true in
  checks "same term" (fst e_naive) (fst e_sem);
  checki "same cost" (snd e_naive) (snd e_sem)

(* commutativity over several distinct Adds: several matches at once *)
let comm_src =
  {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(rewrite (Add ?x ?y) (Add ?y ?x))
(let a (Add (Num 1) (Num 2)))
(let b (Add (Num 3) (Num 4)))
(let c (Add (Num 5) (Num 6)))
(let d (Add (Num 7) (Num 8)))
(run 30)
|}

let test_rule_stats_populated () =
  let t = Interp.create () in
  Interp.run_string t comm_src;
  let stats = Interp.rule_stats t in
  checkb "one rule" true (List.length stats = 1);
  let s = List.hd stats in
  checkb "searched" true (s.Interp.rs_searches > 0);
  checkb "matched" true (s.Interp.rs_matches > 0);
  checkb "timed" true (s.Interp.rs_search_time >= 0. && s.Interp.rs_apply_time >= 0.)

let test_saturated_stays_stable () =
  (* running again on a saturated e-graph does nothing, quickly *)
  let t = Interp.create () in
  Interp.run_string t
    {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(rewrite (Add ?x ?y) (Add ?y ?x))
(let e (Add (Num 1) (Num 2)))
(run 10)
|};
  let nodes = Egraph.n_nodes (Interp.egraph t) in
  Interp.run_string t "(run 10)";
  checki "no growth on re-run" nodes (Egraph.n_nodes (Interp.egraph t));
  match Interp.last_stats t with
  | Some s -> checkb "immediately saturated" true (s.Interp.iterations <= 1)
  | None -> Alcotest.fail "no stats"

let test_parser_rejects_garbage () =
  let fails s =
    match Interp.run_program s with
    | exception Parser.Error _ -> ()
    | exception Interp.Error _ -> ()
    | exception Egraph.Error _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ s)
  in
  fails "(function f)";
  fails "(sort)";
  fails "(let x (UnknownFn 1))";
  fails "(rewrite)";
  fails "(sort S) (sort S (Vec i64))"

(* The engine accepts what Check accepts: repeating a declaration is a
   no-op, declaring a name again as something else raises. *)
let test_redeclaration () =
  let accepts s =
    match Interp.run_program s with
    | _ -> ()
    | exception Egraph.Error m -> Alcotest.failf "%s: %s" s m
  in
  let rejects s =
    match Interp.run_program s with
    | exception Egraph.Error _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ s)
  in
  accepts "(sort S) (sort S)";
  accepts "(sort V (Vec i64)) (sort V (Vec i64))";
  accepts "(datatype S (A)) (sort S) (datatype S (B))";
  accepts "(sort S) (function f (S i64) S) (function f (S i64) S)";
  accepts "(sort S) (relation r (S)) (relation r (S))";
  rejects "(sort S (Vec i64)) (sort S)";
  rejects "(sort V (Vec i64)) (sort V (Vec String))";
  rejects "(sort S) (function f (S) S) (function f (S S) S)";
  rejects "(sort S) (function f (S) S) (function f (S) i64)";
  rejects "(datatype i64 (A))";
  (* a repeated table is the same table: rows and costs survive *)
  let t = Interp.create () in
  Interp.run_string t
    "(datatype E (A :cost 7)) (let a (A)) (datatype E (A :cost 1)) (extract a)";
  match Interp.last_extracted t with
  | Some (term, cost) ->
    checks "term" "(A)" (Extract.term_to_string term);
    checki "first declaration's cost" 7 cost;
    (* an identical rule is a no-op and takes no [rule-N] number; one that
       differs in name, premises, actions or ruleset is a rule of its own *)
    let t = Interp.create () in
    Interp.run_string t
      {|(datatype E (A) (F E) (G E))
(ruleset r)
(rule ((= ?e (F ?x))) ((G ?x)))
(rule ((= ?e (F ?x))) ((G ?x)))
(rewrite (F ?x) ?x)
(rewrite (F ?x) ?x)
(rule ((= ?e (F ?x))) ((G ?x)) :name "named")
(rule ((= ?e (F ?x))) ((G ?x)) :name "named")
(rule ((= ?e (F ?x))) ((G ?x)) :ruleset r)
(rule ((= ?e (G ?x))) ((G ?x)))
(let a (F (A)))
(run 3)|};
    let rows =
      List.map
        (fun s -> Printf.sprintf "%s %d %d" s.Interp.rs_name s.rs_searches s.rs_matches)
        (Interp.rule_stats t)
    in
    Alcotest.(check (list string))
      "registered once each"
      [ "rule-1 2 2"; "rule-2 2 2"; "named 2 2"; "rule-4 0 0"; "rule-5 2 1" ]
      rows;
    (* a rule a [pop] dropped can be registered again *)
    let t = Interp.create () in
    Interp.run_string t
      "(datatype E (A) (F E)) (push) (rule ((= ?e (F ?x))) ((A))) (pop) (rule ((= ?e (F ?x))) \
       ((A)))";
    checki "registered again after the pop" 1 (List.length (Interp.rule_stats t))
  | None -> Alcotest.fail "no extraction"

(* A rule is compiled at its first search that can find something: until
   every table its premises read has a row, it is settled as a search with
   no matches.  These pin that to the behaviour of compiling every rule at
   its first search; the counts are what the eager engine reports. *)
let stat_rows t =
  List.map
    (fun s ->
      Printf.sprintf "%s %d %d" s.Interp.rs_name s.rs_searches s.rs_matches)
    (Interp.rule_stats t)

let test_lazy_rule_older_rows () =
  (* rule-4 joins B, empty until rule-3 fills it in iteration 3, with rows
     of A made in iteration 1 *)
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (Z) (S E))
(relation A (E))
(relation D (E))
(relation B (E))
(relation C (E))
(rule ((= ?e (S ?x))) ((A ?e)))
(rule ((A ?e)) ((D ?e)))
(rule ((D ?e)) ((B ?e)))
(rule ((A ?e) (B ?e)) ((C ?e)))
(let z (Z))
(let s1 (S z))
(let s2 (S s1))
(run 10)
(check (C s1) (C s2))|};
  Alcotest.(check (list string))
    "per-rule counts"
    [ "rule-1 1 2"; "rule-2 2 2"; "rule-3 2 2"; "rule-4 3 2" ]
    (stat_rows t)

(* The iteration, code and message of the fault that stopped [src]'s last
   run. *)
let run_fault src =
  let t = Interp.create () in
  Interp.run_string t src;
  match Interp.last_stats t with
  | Some { iterations; stop = Fault d; _ } -> (iterations, d.code, d.message)
  | Some s -> Alcotest.failf "%s: expected a fault, got %a" src Interp.pp_stop_reason s.stop
  | None -> Alcotest.fail "no run"

let check_fault = Alcotest.(check (triple int string string))

let test_lazy_rule_malformed () =
  (* a malformed premise over an empty table faults as it did when every
     rule was compiled at its first search *)
  List.iter
    (fun (premise, msg) ->
      check_fault premise (0, "saturation-fault", msg)
        (run_fault
           (Printf.sprintf "(datatype E (A)) (relation B (E)) (rule (%s) ((A))) (run 5)" premise)))
    [
      ("(B ?x ?y)", "match: B expects 1 arguments in a pattern, got 2");
      ("(Nope ?x)", "match: unknown function Nope in pattern");
    ];
  (* a residual fact that nothing constrains faults at the first row that
     reaches it *)
  List.iter
    (fun (premise, msg) ->
      check_fault premise (0, "saturation-fault", msg)
        (run_fault
           (Printf.sprintf
              "(datatype E (A)) (relation B (E)) (B (A)) (rule ((B ?x) %s) ((A))) (run 5)" premise)))
    [
      ("(= ?y ?z)", "match: unconstrained (=) fact");
      ("?y", "match: unconstrained variable in fact: ?y");
      ("_", "match: unconstrained wildcard in fact");
    ]

(* An action shape that cannot be checked when its rule is compiled (a
   wildcard, [set]/[delete]/[unstable-cost] on something other than a
   table application, a wrong arity or argument sort, an undeclared
   table) faults when the rule first applies, in its second iteration,
   with these diagnostics; a table declared only after the rule was
   compiled is resolved when its action runs. *)
let test_action_faults () =
  List.iter
    (fun (action, msg) ->
      check_fault action (1, "saturation-fault", msg)
        (run_fault
           (Printf.sprintf
              "(datatype E (A) (W E)) (relation P (E)) (relation Q (E)) (function f (E) E) (P (A)) \
               (rule ((P ?x)) ((Q ?x))) (rule ((Q ?x)) (%s)) (run 5)"
              action)))
    [
      ("(W _)", "wildcard in expression position");
      ("(W ?x _)", "wildcard in expression position");
      ("(set ?x (A))", "set expects a function application, got ?x");
      ("(delete ?x)", "delete expects a function application, got ?x");
      ("(unstable-cost ?x 3)", "unstable-cost expects an e-node application, got ?x");
      ("(set (+ 1 2) 3)", "e-graph: unknown function +");
      ("(delete (+ 1 2))", "e-graph: unknown function +");
      ("(W 1)", "e-graph: W: argument 0 has wrong sort (expected E, got 1)");
      ("(W (A) 1)", "e-graph: W expects 1 arguments, got 2");
      ("(set (f ?x) 1)", "e-graph: f: output has wrong sort (expected E, got 1)");
      ("(set (f 1) ?x)", "e-graph: f: argument 0 has wrong sort (expected E, got 1)");
      ("(unstable-cost (W 1) 2)", "e-graph: W: argument 0 has wrong sort (expected E, got 1)");
      ("(Later ?x)", "e-graph: unknown function Later");
      ("(set (Later ?x) ?x)", "e-graph: unknown function Later");
      ("(W (Later ?x))", "e-graph: unknown function Later");
    ];
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (A) (B) (W E))
(relation Q (E))
(relation R (E))
(Q (A))
(R (B))
(rule ((Q ?x) (R ?x)) ((Later ?x) (W ?x)))
(run 2)
(relation Later (E))
(R (A))
(run 2)
(check (Later (A)) (W (A)))|};
  Alcotest.(check (list string)) "per-rule counts" [ "rule-1 2 1" ] (stat_rows t)

let test_lazy_rule_global () =
  (* the premise names global g and reads Q, empty at the first run; it
     matches once g's class merged with h and Q has a row *)
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (A) (B) (W E))
(relation R (E))
(relation Q (E))
(let g (A))
(let h (B))
(rule ((R g) (Q ?x)) ((W ?x)))
(R h)
(run 2)
(Q h)
(union g h)
(run 3)
(check (W h))|};
  Alcotest.(check (list string)) "per-rule counts" [ "rule-1 2 1" ] (stat_rows t);
  (* a bare premise name denotes a global only if one of that name exists
     when the rule is registered: whether the rule is first searched
     before or after a later [let] of that name, it is a pattern variable *)
  List.iter
    (fun (first_run, counts) ->
      let t = Interp.create () in
      Interp.run_string t
        (Printf.sprintf
           {|(datatype E (A) (B) (W E))
(relation Q (E))
(rule ((Q x)) ((W x)))
%s
(let x (A))
(Q (B))
(run 2)
(check (W (B)))|}
           first_run);
      Alcotest.(check (list string)) ("per-rule counts " ^ first_run) counts (stat_rows t))
    [ ("(run 1)", [ "rule-1 2 1" ]); ("", [ "rule-1 1 1" ]) ];
  (* registered after the [let], it is pinned to the global's class *)
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (A) (B) (W E))
(relation Q (E))
(let x (A))
(rule ((Q x)) ((W x)))
(Q (B))
(run 2)|};
  checkb "no match for (Q (B))" true (Interp.query t (facts_of "((W (B)))") = []);
  Interp.run_string t "(Q (A)) (run 2) (check (W (A)))";
  Alcotest.(check (list string)) "pinned counts" [ "rule-1 2 1" ] (stat_rows t);
  (* a [let] inside a [push] does not change what a rule registered
     before it means, nor does the [pop] *)
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (A) (B) (W E))
(relation Q (E))
(rule ((Q x)) ((W x)))
(push)
(let x (A))
(Q (B))
(run 2)
(check (W (B)))
(pop)
(Q (B))
(run 2)
(check (W (B)))|};
  Alcotest.(check (list string)) "push/pop counts" [ "rule-1 2 2" ] (stat_rows t)

(* The join's match multiset: one match per distinct assignment of the
   variables that occur twice or more, times the rows of each atom that
   binds a variable read nowhere else.  A plain row-by-row loop would
   differ on every shape below. *)
let test_join_match_counts () =
  let counts src =
    let t = Interp.create () in
    Interp.run_string t src;
    stat_rows t
  in
  let case name expected src = Alcotest.(check (list string)) name expected (counts src) in
  (* no premise below has a wildcard argument column unless it says so:
     one would let the wildcard dedupe hide the join's counts *)
  let graph =
    {|(datatype E (A) (B) (C) (Num i64) (S E) (P E E))
(relation hit (E))
(function val (E) i64)
(let a (A))
|}
  in
  (* P binds ?y and ?r, which no action reads: one match for ?x = a, not two *)
  case "unread atom counts once" [ "rule-1 1 1" ]
    (graph ^ "(P a (B)) (P a (C)) (S a)\n(rule ((= ?s (S ?x)) (= ?r (P ?x ?y))) ((hit ?x)))\n(run 2)");
  (* the same rule when P's rows are the new ones: P comes first in the
     join and counts once per distinct ?x (ten of them, three rows each) *)
  case "unread atom first in its term" [ "rule-1 2 10" ]
    (graph
    ^ String.concat " " (List.init 10 (Printf.sprintf "(S (Num %d))"))
    ^ "\n(rule ((= ?s (S ?x)) (= ?r (P ?x ?y))) ((hit ?x)))\n(run 1)\n"
    ^ String.concat " "
        (List.init 30 (fun i -> Printf.sprintf "(P (Num %d) (Num %d))" (i mod 10) (100 + i)))
    ^ "\n(run 1)");
  (* the same behind a bare relation: its free output column does not
     turn on the post-join dedupe, which would hide a wrong count *)
  case "unread atom first, after a relation" [ "rule-1 2 10" ]
    (graph
    ^ "(relation Q (E))\n"
    ^ String.concat " " (List.init 10 (Printf.sprintf "(Q (Num %d))"))
    ^ "\n(rule ((Q ?x) (= ?r (P ?x ?y))) ((hit ?x)))\n(run 1)\n"
    ^ String.concat " "
        (List.init 30 (fun i -> Printf.sprintf "(P (Num %d) (Num %d))" (i mod 10) (100 + i)))
    ^ "\n(run 1)");
  (* read, ?y makes one match per row *)
  case "read atom counts per row" [ "rule-1 1 2" ]
    (graph ^ "(P a (B)) (P a (C)) (S a)\n(rule ((= ?s (S ?x)) (= ?r (P ?x ?y))) ((hit ?y)))\n(run 2)");
  (* ?x twice in one atom: only the rows whose two arguments agree *)
  case "repeated variable" [ "rule-1 1 2"; "rule-2 1 2" ]
    (graph
    ^ {|(P a a) (P (B) (B)) (P a (B))
(rule ((= ?r (P ?x ?x))) ((hit ?x)))
(rule ((= ?r (P ?x ?x))) ((hit ?r)))
(run 2)|});
  (* a literal output column, and a literal under a nested constructor *)
  case "literal columns" [ "rule-1 1 2"; "rule-2 1 1" ]
    (graph
    ^ {|(set (val a) 7) (set (val (B)) 7) (set (val (C)) 8)
(P a (Num 1)) (P (B) (Num 2))
(rule ((= (val ?x) 7)) ((hit ?x)))
(rule ((= ?r (P ?x (Num 1)))) ((hit ?x)))
(run 2)|});
  (* a global column: after its class merges, the rule searches in full
     and matches every row pinned to the merged class *)
  case "global column, merged mid-run" [ "rule-1 2 5" ]
    (graph
    ^ {|(let g (A))
(P g (Num 1)) (P g (Num 2)) (P (B) (Num 3))
(rule ((= ?r (P g ?y))) ((hit ?y)))
(run 1)
(union (B) g)
(run 1)|});
  (* wildcard columns: rows differing only there witness one match, also
     where the atom binds only a join variable *)
  case "wildcard columns" [ "rule-1 1 1"; "rule-2 1 1" ]
    (graph
    ^ {|(P a (B)) (P a (C)) (S a)
(rule ((= ?e (P ?x _))) ((hit ?x)))
(rule ((= ?s (S ?x)) (P ?x _)) ((hit ?x)))
(run 2)|});
  (* a bare relation leaves its output column free, but its rows are
     unique by key: F's two rows count twice with it as without it *)
  case "free output column" [ "rule-1 1 2"; "rule-2 1 2" ]
    {|(relation Q (i64))
(function F (i64 i64) i64)
(relation hit (i64 i64))
(Q 1)
(set (F 1 10) 5)
(set (F 1 20) 5)
(rule ((Q ?x) (= ?o (F ?x ?w))) ((hit ?x ?o)))
(rule ((= ?o (F ?x ?w))) ((hit ?x ?o)))
(run 1)|}

(* The placement of nested applications: one atom per distinct ground
   application, shared by every premise that names it.  With [keep] unset
   the plan emits every variable, so matmul_assoc's cost rule has two
   compiler-made slots, one per [(type-of ...)]. *)
let test_plan_shared_ground () =
  let t = Interp.create () in
  Interp.run_string t
    {|(sort Op) (sort Type)
(function linalg_matmul (Op Op Op Type) Op)
(function type-of (Op) Type)
(function nrows (Type) i64)
(function ncols (Type) i64)|};
  let idx = Matcher.make_index (Interp.egraph t) (Hashtbl.create 1) in
  let gp =
    Matcher.gcompile ~pinned:[] idx
      (facts_of
         "((= ?e (linalg_matmul ?x ?y ?xy ?t)) (= ?a (nrows (type-of ?x))) (= ?b (ncols (type-of \
          ?x))) (= ?c (ncols (type-of ?y))))")
  in
  let names = Matcher.gp_slot_names gp and own = Matcher.gp_own_slots gp in
  checki "compiler-made slots" 2 (Array.length names - Array.length own);
  Alcotest.(check (list string)) "own slots"
    [ "?a"; "?b"; "?c"; "?e"; "?t"; "?x"; "?xy"; "?y" ]
    (List.sort compare (Array.to_list (Array.map (fun s -> names.(s)) own)))

(* The atom order sets the order matches come out in: nested
   associativity premises over a saturated chain. *)
let test_join_match_order () =
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (V i64) (Mul E E))
(let e (Mul (Mul (Mul (V 1) (V 2)) (V 3)) (V 4)))
(rewrite (Mul (Mul ?a ?b) ?c) (Mul ?a (Mul ?b ?c)))
(rewrite (Mul ?a (Mul ?b ?c)) (Mul (Mul ?a ?b) ?c))
(run 10)|};
  let show m = String.concat " " (List.map (fun (x, v) -> x ^ "=" ^ Value.to_string v) m) in
  let matches facts = List.map show (Interp.query t (facts_of facts)) in
  Alcotest.(check (list string)) "binding nested application"
    [
      "?a=$0 ?b=$1 ?c=$3 ?r=$4";
      "?a=$2 ?b=$3 ?c=$5 ?r=$6";
      "?a=$0 ?b=$7 ?c=$5 ?r=$6";
      "?a=$0 ?b=$1 ?c=$9 ?r=$6";
      "?a=$1 ?b=$3 ?c=$5 ?r=$13";
    ]
    (matches "((= ?r (Mul (Mul ?a ?b) ?c)))");
  Alcotest.(check (list string)) "ground nested application"
    [
      "?r=$7 ?s=$4 ?x=$1 ?y=$3 ?z=$3";
      "?r=$7 ?s=$6 ?x=$1 ?y=$3 ?z=$9";
      "?r=$13 ?s=$6 ?x=$7 ?y=$5 ?z=$5";
      "?r=$13 ?s=$4 ?x=$1 ?y=$9 ?z=$3";
      "?r=$13 ?s=$6 ?x=$1 ?y=$9 ?z=$9";
    ]
    (matches "((= ?r (Mul ?x ?y)) (= ?s (Mul (Mul (V 1) ?x) ?z)))")

(* [(check ...)] and queries search in full, through the same join: the
   query lists one binding per match of the premises' own variables *)
let test_join_full_search () =
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (A) (B) (C) (P E E))
(relation Q (E))
(let a (A))
(P a (B)) (P a (C)) (P (B) (B)) (Q a) (Q (B))
(check (Q ?x) (P ?x ?y))
(check (= ?r (P ?z ?z)))|};
  checki "two checks passed" 2
    (List.length (List.filter (( = ) Interp.O_checked) (Interp.outputs t)));
  let n facts = List.length (Interp.query t (facts_of facts)) in
  checki "per row of the read atom" 3 (n "((Q ?x) (P ?x ?y))");
  checki "repeated variable" 1 (n "((= ?r (P ?z ?z)))");
  checki "wildcard, deduplicated" 2 (n "((Q ?x) (P ?x _))");
  checki "no match" 0 (n "((Q ?x) (P ?x ?x) (P ?x (C)))")

(* An equality whose table call sits under a primitive has no shared
   output column: the whole equality is a residual, and it binds ?x. *)
let test_join_call_under_primitive () =
  let _, outs =
    run_ok
      {|(datatype E (A) (B))
(function val (E) i64)
(relation hit (i64))
(set (val (A)) 3)
(rule ((= ?z (val ?y)) (= ?x (+ (val ?y) 1))) ((hit ?x)))
(run 3)
(check (hit 4))|}
  in
  checkb "the rule fired" true (List.mem Interp.O_checked outs)

(* A search's minor-heap allocation does not grow with its matches: the
   same join over 10 and over 1,000 rows allocates the same words, once
   the plan's scratch exists. *)
let test_join_allocation () =
  let words n =
    let t = Interp.create () in
    Interp.run_string t
      ("(datatype E (L i64) (P E E))\n"
      ^ String.concat "\n" (List.init n (fun i -> Printf.sprintf "(P (L %d) (L %d))" i (i + 1))));
    let eg = Interp.egraph t in
    Egraph.rebuild eg;
    let idx = Matcher.make_index eg (Hashtbl.create 1) in
    let gp = Matcher.gcompile ~pinned:[] idx (facts_of "((= ?p (P ?x ?y)) (= ?x (L ?i)))") in
    let search () = Matcher.gsolve_packed idx gp ~since:(-1) ~residual:(fun _ -> true) in
    ignore (search ());
    let w0 = Gc.minor_words () in
    let pk = search () in
    let w1 = Gc.minor_words () in
    checki (Printf.sprintf "%d matches" n) n pk.Matcher.pk_rows;
    w1 -. w0
  in
  Alcotest.(check (float 0.)) "minor words, 10 vs 1,000 matches" (words 10) (words 1000)

(* Congruence that collapses rows onto a survivor whose output does not
   change leaves the survivor as it was: no rule reading the table finds
   it again. *)
let test_rebuild_unchanged_survivor () =
  let t = Interp.create () in
  Interp.run_string t
    {|(datatype E (A) (B) (F E))
(relation hit (E))
(let a (A))
(let b (B))
(let fa (F a))
(let fb (F b))
(union fb fa)
(rule ((= ?y (F ?x))) ((hit ?y)))
(run 1)
(union a b)
(run 1)|};
  checki "the rule's matches, both runs" 2
    (List.fold_left (fun n (s : Interp.rule_stat) -> n + s.rs_matches) 0 (Interp.rule_stats t));
  checki "matches in the run after the collapse" 0 (Option.get (Interp.last_stats t)).Interp.matches

let () =
  Alcotest.run "egglog"
    [
      ( "sexp",
        [
          Alcotest.test_case "atoms and lists" `Quick test_sexp_atoms;
          Alcotest.test_case "comments" `Quick test_sexp_comments;
          Alcotest.test_case "string escapes" `Quick test_sexp_escapes;
          Alcotest.test_case "errors" `Quick test_sexp_errors;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"roundtrip" ~count:1 QCheck.unit (fun () ->
                 test_sexp_roundtrip ();
                 true));
        ] );
      ( "union-find",
        [
          Alcotest.test_case "basics" `Quick test_uf_basic;
          Alcotest.test_case "partition property" `Quick test_uf_props;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "evaluation" `Quick test_primitives;
          Alcotest.test_case "errors" `Quick test_primitive_errors;
          Alcotest.test_case "pow/log2 inverse" `Quick test_pow_log2_props;
        ] );
      ( "egraph",
        [
          Alcotest.test_case "hashcons" `Quick test_egraph_hashcons;
          Alcotest.test_case "congruence" `Quick test_egraph_congruence;
          Alcotest.test_case "deep congruence" `Quick test_egraph_deep_congruence;
          Alcotest.test_case "vec congruence" `Quick test_egraph_vec_congruence;
          Alcotest.test_case "merge conflict" `Quick test_egraph_merge_conflict;
          Alcotest.test_case "merge function" `Quick test_egraph_merge_fn;
          Alcotest.test_case "sort checking" `Quick test_egraph_sort_check;
          Alcotest.test_case "congruence property" `Quick test_congruence_prop;
        ] );
      ( "programs",
        [
          Alcotest.test_case "paper §2.3 example" `Quick test_paper_example;
          Alcotest.test_case "saturation detects fixpoint" `Quick test_saturation_stops;
          Alcotest.test_case "node limit stops explosion" `Quick test_node_limit;
          Alcotest.test_case "check command" `Quick test_check_command;
          Alcotest.test_case "check failure" `Quick test_check_fails;
          Alcotest.test_case "conditional rule fires" `Quick test_conditional_rule;
          Alcotest.test_case "conditional rule guarded" `Quick test_conditional_rule_negative;
          Alcotest.test_case "table functions + merge" `Quick test_table_functions;
          Alcotest.test_case "unstable-cost" `Quick test_unstable_cost;
          Alcotest.test_case "extraction shares subterms" `Quick test_extract_shared_physical;
          Alcotest.test_case "extraction avoids cycles" `Quick test_extract_cycle;
          Alcotest.test_case "extraction cost arithmetic" `Quick test_extract_cost_value;
          Alcotest.test_case "extraction cost sums saturate" `Quick test_extract_cost_saturates;
          Alcotest.test_case "negative costs rejected" `Quick test_negative_cost_rejected;
          Alcotest.test_case "cost arithmetic overflow" `Quick test_cost_overflow;
          Alcotest.test_case "costs at the extraction cap" `Quick test_cost_cap;
          Alcotest.test_case "extraction candidate order" `Quick test_extract_candidate_order;
          Alcotest.test_case "rules create nodes" `Quick test_rule_creates_nodes;
          Alcotest.test_case "no variable capture by globals" `Quick test_global_shadowing_safe;
          Alcotest.test_case "wildcard patterns" `Quick test_wildcard_pattern;
          Alcotest.test_case "rebuild-strategy ablation agrees" `Quick test_immediate_rebuild_ablation;
          Alcotest.test_case "immediate rebuild in set_codes" `Quick
            test_immediate_rebuild_set_codes;
          Alcotest.test_case "parser rejects garbage" `Quick test_parser_rejects_garbage;
          Alcotest.test_case "redeclaration" `Quick test_redeclaration;
        ] );
      ( "rulesets-and-snapshots",
        [
          Alcotest.test_case "rulesets run independently" `Quick test_rulesets;
          Alcotest.test_case "unknown ruleset rejected" `Quick test_unknown_ruleset_rejected;
          Alcotest.test_case "push/pop restores state" `Quick test_push_pop;
          Alcotest.test_case "pop without push fails" `Quick test_pop_without_push;
          Alcotest.test_case "forks are independent" `Quick test_fork_independent;
          Alcotest.test_case "forks share compiled plans" `Quick test_fork_compiled_plans;
          Alcotest.test_case "prepared rules splice as registered" `Quick test_prepared_rules;
          Alcotest.test_case "push/pop restores cost overrides" `Quick
            test_push_pop_preserves_costs;
          Alcotest.test_case "overrides under merges" `Quick test_overrides_under_merges;
          Alcotest.test_case "extract variants" `Quick test_extract_variants;
          Alcotest.test_case "lattice analysis" `Quick test_lattice_analysis;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "dirty-skip equals full rescan (property)" `Quick
            test_dirty_skip_equivalence;
          Alcotest.test_case "seminaive equals naive (property)" `Quick
            test_seminaive_equivalence;
          Alcotest.test_case "seminaive extraction identical" `Quick
            test_seminaive_extraction_identical;
          Alcotest.test_case "rule stats populated" `Quick test_rule_stats_populated;
          Alcotest.test_case "lazy rule fires on older rows" `Quick test_lazy_rule_older_rows;
          Alcotest.test_case "lazy rule: malformed premises fault" `Quick
            test_lazy_rule_malformed;
          Alcotest.test_case "lazy rule naming a global" `Quick test_lazy_rule_global;
          Alcotest.test_case "malformed actions fault" `Quick test_action_faults;
          Alcotest.test_case "saturated state is stable" `Quick test_saturated_stays_stable;
        ] );
      ( "join",
        [
          Alcotest.test_case "match counts per shape" `Quick test_join_match_counts;
          Alcotest.test_case "full search" `Quick test_join_full_search;
          Alcotest.test_case "table call under a primitive" `Quick
            test_join_call_under_primitive;
          Alcotest.test_case "allocation independent of matches" `Quick test_join_allocation;
          Alcotest.test_case "ground applications shared" `Quick test_plan_shared_ground;
          Alcotest.test_case "match order" `Quick test_join_match_order;
          Alcotest.test_case "rebuild keeps an unchanged survivor" `Quick
            test_rebuild_unchanged_survivor;
        ] );
    ]
