(* Property tests for the arena e-graph and its one matcher, the generic
   join.

   The join is checked against a brute-force reference matcher
   (Fuzzing.Reference): after every (run) of random rewrite systems, and
   of programs that delete rows and push/pop snapshots (which exercise
   the lazy column-index sync and compaction remapping paths), every
   rule's full match set through the join must equal the reference's,
   compared as sets of bindings of the rule's own variables.  One
   hand-written program per premise shape the join compiles beyond flat
   patterns gets the same check.  Seminaive matching must reach the same
   fixpoint as naive matching on the same join.  Extraction through the
   per-class e-node index must match the reference extractor's naive
   fixpoint and table scans on every class.  A union made during a
   narrowed rebuild pass must still reach every table.  A table nobody
   wrote to must read as empty, and its first append must leave every
   other table sharing its empty arrays empty. *)

open Egglog

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Random term-rewriting systems over a small signature                 *)
(* ------------------------------------------------------------------ *)

(* Same shape as the scheduler-equivalence generator in test_egglog: a
   few depth-bounded rewrite rules over Add/Mul/Neg/Num plus a random
   seed term.  Deterministic programs only — no randomness at runtime,
   so two matching regimes given the same source must agree exactly. *)
let random_trs_parts_gen : (string * string) QCheck.Gen.t =
  let open QCheck.Gen in
  let rec pat depth vars =
    if depth <= 0 then
      oneof [ oneofl vars; map (Printf.sprintf "(Num %d)") (int_bound 3) ]
    else
      frequency
        [
          (2, oneofl vars);
          (1, map (Printf.sprintf "(Num %d)") (int_bound 3));
          ( 3,
            let* a = pat (depth - 1) vars in
            let* b = pat (depth - 1) vars in
            oneofl
              [ Printf.sprintf "(Add %s %s)" a b; Printf.sprintf "(Mul %s %s)" a b ]
          );
          (2, map (Printf.sprintf "(Neg %s)") (pat (depth - 1) vars));
        ]
  in
  let rooted_pat vars =
    frequency
      [
        ( 3,
          let* a = pat 1 vars in
          let* b = pat 1 vars in
          oneofl
            [ Printf.sprintf "(Add %s %s)" a b; Printf.sprintf "(Mul %s %s)" a b ]
        );
        (2, map (Printf.sprintf "(Neg %s)") (pat 1 vars));
      ]
  in
  let rule =
    let* lhs = rooted_pat [ "?x"; "?y" ] in
    let vars_in s =
      List.filter
        (fun v ->
          let rec contains i =
            i + String.length v <= String.length s
            && (String.sub s i (String.length v) = v || contains (i + 1))
          in
          contains 0)
        [ "?x"; "?y" ]
    in
    let vs = match vars_in lhs with [] -> [ "(Num 0)" ] | vs -> vs in
    let* rhs = pat 2 vs in
    return (Printf.sprintf "(rewrite %s %s)" lhs rhs)
  in
  let* n_rules = int_range 1 4 in
  let* rules = list_repeat n_rules rule in
  let* seed_expr = pat 2 [ "(Num 7)" ] in
  return (String.concat "\n" rules, seed_expr)

let random_trs_gen : string QCheck.Gen.t =
  QCheck.Gen.map
    (fun (rules, seed_expr) ->
      Printf.sprintf
        {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(function Mul (E E) E)
(function Neg (E) E)
%s
(let root %s)
(run 6)
(extract root)
|}
        rules seed_expr)
    random_trs_parts_gen

(* The same systems with every constructor's :cost drawn from 0..2 (zero
   makes cycles through free e-nodes and cost ties), plus a constructor
   over a vector of terms unioned with an Add, so that vector children
   count towards a class's cost. *)
let costed_trs_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  let* rules, seed_expr = random_trs_parts_gen in
  let* costs = list_repeat 5 (int_bound 2) in
  let* n = int_bound 3 in
  let c i = List.nth costs i in
  return
    (Printf.sprintf
       {|
(sort E)
(sort Es (Vec E))
(function Num (i64) E :cost %d)
(function Add (E E) E :cost %d)
(function Mul (E E) E :cost %d)
(function Neg (E) E :cost %d)
(function Sum (Es) E :cost %d)
%s
(let root %s)
(union (Sum (vec-of (Num %d) root)) (Add (Num %d) root))
(run 6)
|}
       (c 0) (c 1) (c 2) (c 3) (c 4) rules seed_expr n n)

exception Mismatch of string

(* Run [src] command by command; after every (run), every rule's full
   match set through the join must equal the reference matcher's.  The
   result is everything a matching regime could leak into: the saturated
   partition and the extracted term + cost.  Budget faults abort the run
   identically in every regime, so a raised [Interp.Error] is folded into
   the observation rather than a failure. *)
let observe ?(naive = false) ?(reference = true) src =
  let t = Interp.create ~max_nodes:3_000 () in
  Interp.set_naive_matching t naive;
  let check_matches () =
    match Fuzzing.Reference.disagreements t with
    | [] -> ()
    | bad ->
      raise
        (Mismatch
           (String.concat "; "
              (List.map
                 (fun (rule, j, r) -> Printf.sprintf "%s: join %d, reference %d" rule j r)
                 bad)))
  in
  let err =
    try
      List.iter
        (fun (c : Ast.command) ->
          Interp.run_command t c;
          match c with C_run _ when reference -> check_matches () | _ -> ())
        (Parser.parse_program src);
      ""
    with Interp.Error e -> e
  in
  Egraph.rebuild (Interp.egraph t);
  let extracted =
    match Interp.last_extracted t with
    | Some (term, cost) -> Printf.sprintf "%s @%d" (Extract.term_to_string term) cost
    | None -> "<none>"
  in
  ( Egraph.n_nodes (Interp.egraph t),
    Egraph.n_classes (Interp.egraph t),
    extracted,
    err )

let agrees src =
  match observe src with
  | _ -> true
  | exception Mismatch m -> QCheck.Test.fail_report m

(* ------------------------------------------------------------------ *)
(* The join against the reference matcher                               *)
(* ------------------------------------------------------------------ *)

let test_join_reference () =
  QCheck.Test.check_exn
    (QCheck.Test.make
       ~name:"join = reference after every run on random TRS" ~count:80
       (QCheck.make random_trs_gen) agrees)

let test_seminaive_naive () =
  (* the seminaive decomposition vs a full search of every due rule, both
     through the one join: the same fixpoint *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"seminaive = naive matching" ~count:40
       (QCheck.make random_trs_gen)
       (fun src ->
         observe ~reference:false src = observe ~reference:false ~naive:true src))

(* One program per premise shape the join compiles beyond flat patterns;
   each ends with a check that the shape actually matched. *)
let shape_programs =
  [
    ( "global in a pattern slot",
      {|
(sort E)
(function Num (i64) E)
(function Neg (E) E)
(relation hit (E))
(let g (Num 1))
(let a (Neg (Num 1)))
(let b (Neg (Num 2)))
(rule ((= ?e (Neg g))) ((hit ?e)))
(run 3)
(check (hit a))
|} );
    ( "primitive call in a pattern slot",
      {|
(sort E)
(function Num (i64) E)
(function Pair (E i64) E)
(relation hit (E))
(let a (Pair (Num 3) 4))
(let b (Pair (Num 3) 5))
(rule ((= ?e (Pair (Num ?n) (+ ?n 1)))) ((hit ?e)))
(run 3)
(check (hit a))
|} );
    ( "vec-of in a pattern slot",
      {|
(sort E)
(sort EV (Vec E))
(function Num (i64) E)
(function Sum (EV) E)
(relation hit (E E))
(let s (Sum (vec-of (Num 1) (Num 2))))
(rule ((!= ?a ?b) (= ?e (Sum (vec-of ?a ?b)))) ((hit ?a ?b)))
(run 3)
(check (hit (Num 1) (Num 2)))
|} );
    ( "table call under a primitive",
      {|
(sort E)
(function Num (i64) E)
(function size (E) i64)
(relation big (E))
(let a (Num 1))
(let b (Num 2))
(set (size a) 10)
(set (size b) 1)
(rule ((> (size ?e) 5)) ((big ?e)))
(run 3)
(check (big a))
|} );
    ( "equality over two table calls",
      {|
(sort E)
(function Num (i64) E)
(function Neg (E) E)
(function Abs (E) E)
(relation same (E))
(let x (Num 1))
(union (Neg x) (Abs x))
(let y (Num 2))
(let ny (Neg y))
(let ay (Abs y))
(rule ((= (Neg ?x) (Abs ?x))) ((same ?x)))
(run 3)
(check (same x))
|} );
    ( "no table atom at all",
      {|
(sort E)
(function Num (i64) E)
(let a (Num 1))
(let b (Num 1))
(check (= a b))
(relation fired ())
(rule ((= 1 1)) ((fired)))
(run 2)
(check (fired))
|} );
  ]

(* Random rules whose premises mix those shapes — and guards and
   residual bindings in any order, some over a primitive that fails on
   some rows — over a small e-graph in which a global's class merges
   mid-run.  Each rule's one action reads variables
   its premises mention, which the join or a residual binds (a fault, for
   instance a vector where a term is expected, is recorded in the
   observation). *)
let random_shapes_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  let facts =
    [
      "(= ?a (Num ?n))"; "(= ?a (Add ?b ?c))"; "(= ?a (Add (Num ?n) ?c))";
      "(= ?a (Neg g))"; "(= ?b (Num (+ ?n 1)))"; "(= (Add ?b ?c) (Neg ?d))";
      "(> ?n 0)"; "(= ?m (+ ?n 1))"; "(= ?v (val ?a))"; "(< (val ?a) 3)";
      "(= ?a g)"; "(Neg ?b)"; "(= (Neg ?a) (Neg ?b) ?c)"; "(!= ?a ?b)";
      "(= ?u (Pair (vec-of ?a ?b)))"; "(= (vec-of ?a ?b) ?w)";
      "(= (val ?b) (+ (val ?a) 1))"; "(= 3 (val ?a))"; "(= _ (Neg ?a))";
      "(Add ?a _)"; "(= ?a (Add ?b (Num (* ?n 2))))"; "(= ?k (val (Neg ?a)))";
      "(< (val (Add ?a ?b)) 5)"; "(= ?n 1)"; "(= g (Num ?n))"; "(> (/ 6 ?n) 1)";
      "(= ?m (/ 6 ?n))";
    ]
  in
  let actions =
    [
      ("(hit ?a)", [ "?a" ]); ("(hit ?u)", [ "?u" ]); ("(set (val ?a) ?m)", [ "?a"; "?m" ]);
      ("(union ?b ?c)", [ "?b"; "?c" ]); ("(Num ?m)", [ "?m" ]);
      ("(Pair (vec-of ?b ?a))", [ "?a"; "?b" ]); ("(Neg ?w)", [ "?w" ]); ("(hit g)", []);
    ]
  in
  let mentions s v =
    let rec from i =
      i + String.length v <= String.length s
      && (String.sub s i (String.length v) = v || from (i + 1))
    in
    from 0
  in
  let rule =
    let* k = int_range 1 4 in
    let* fs = list_repeat k (oneofl facts) in
    let body = String.concat " " fs in
    (* an action whose variables the premises mention *)
    let* action =
      oneofl
        (List.filter_map
           (fun (a, vs) -> if List.for_all (mentions body) vs then Some a else None)
           actions)
    in
    return (Printf.sprintf "(rule (%s) (%s))" body action)
  in
  let* n = int_range 1 3 in
  let* rules = list_repeat n rule in
  return
    (Printf.sprintf
       {|
(sort E)
(sort EV (Vec E))
(function Num (i64) E)
(function Add (E E) E)
(function Neg (E) E)
(function Pair (EV) E)
(function val (E) i64 :merge (min old new))
(relation hit (E))
(let g (Num 1))
(rewrite (Add ?x ?y) (Add ?y ?x))
(rewrite (Neg (Neg ?x)) ?x)
(rule ((= ?e (Num ?k))) ((set (val ?e) ?k)))
(rule ((= ?e (Add ?x ?y)) (= ?p (val ?x)) (= ?q (val ?y))) ((set (val ?e) (+ ?p ?q))))
%s
(let r1 (Add (Num 1) (Neg (Num 2))))
(let r2 (Neg (Neg (Add g (Num 0)))))
(let r3 (Pair (vec-of (Num 1) (Num 2))))
(let r4 (Pair (vec-of (Num 3) (Num 2) (Num 1))))
(union (Neg g) (Num 2))
(run 3)
(union (Num 0) (Neg (Num 1)))
(union (Num 3) g)
(run 3)
|}
       (String.concat "\n" rules))

let test_random_shapes () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"join = reference on random premise shapes" ~count:500
       (QCheck.make ~print:Fun.id random_shapes_gen) agrees)

let test_random_shapes_seminaive () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"seminaive = naive on random premise shapes" ~count:200
       (QCheck.make ~print:Fun.id random_shapes_gen)
       (fun src ->
         observe ~reference:false src = observe ~reference:false ~naive:true src))

let test_shapes () =
  List.iter
    (fun (name, src) ->
      match observe src with
      | _, _, _, "" -> ()
      | _, _, _, err -> Alcotest.failf "%s: %s" name err
      | exception Mismatch m -> Alcotest.failf "%s: %s" name m)
    shape_programs

(* A global's class can merge with another mid-run: the join must pin the
   global's canonical code afresh at each search, and a rule whose global
   moved must search old rows again.  Both union directions, so one of
   them leaves the global's original class non-canonical. *)
let test_global_merge () =
  List.iter
    (fun (first, second) ->
      let src =
        Printf.sprintf
          {|
(sort E)
(function Num (i64) E)
(function Neg (E) E)
(relation hit (E))
(let g (Num 1))
(let old (Neg (Num 2)))
(rule ((= ?e (Neg g))) ((hit ?e)))
(run 3)
(union %s %s)
(run 3)
(check (hit old))
(let fresh (Neg (Num 3)))
(union (Num 3) g)
(run 3)
(check (hit fresh))
|}
          first second
      in
      match observe src with
      | _, _, _, "" -> ()
      | _, _, _, err -> Alcotest.failf "(union %s %s): %s" first second err
      | exception Mismatch m -> Alcotest.failf "(union %s %s): %s" first second m)
    [ ("g", "(Num 2)"); ("(Num 2)", "g") ]

(* ------------------------------------------------------------------ *)
(* Delete and push/pop paths                                            *)
(* ------------------------------------------------------------------ *)

(* Deletion kills arena rows mid-run: searches must never see the dead
   rows, and the by-column indexes must survive the compaction remap. *)
let delete_src =
  {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(function depth (E) i64 :merge (min old new))
(rule ((= ?e (Num ?v))) ((set (depth ?e) 0)))
(rule ((= ?e (Add ?x ?y)) (= ?dx (depth ?x)) (= ?dy (depth ?y)))
      ((set (depth ?e) (+ 1 (max ?dx ?dy)))))
(let root (Add (Add (Num 1) (Num 2)) (Num 3)))
(run 5)
(delete (depth root))
(run 5)
(extract root)
|}

let test_delete () =
  (* join = reference after each run, in both regimes (seminaive matching
     does not re-derive a deleted row whose premises did not change, so
     the two regimes may end in different fixpoints here) *)
  List.iter
    (fun naive ->
      match observe ~naive delete_src with
      | _, _, _, err -> checks "delete: no error" "" err
      | exception Mismatch m -> Alcotest.failf "delete (naive=%b): %s" naive m)
    [ false; true ];
  (* the deleted row must actually be gone, then re-derivable *)
  let t = Interp.create () in
  Interp.run_string t delete_src;
  let eg = Interp.egraph t in
  checki "row counts consistent after delete/re-run" (Egraph.n_nodes eg)
    (Egraph.recount_nodes eg)

let pushpop_src =
  {|
(sort E)
(function Num (i64) E)
(function Add (E E) E)
(function Mul (E E) E)
(let root (Add (Num 1) (Add (Num 2) (Num 3))))
(push)
(rewrite (Add ?x ?y) (Add ?y ?x))
(run 4)
(pop)
(rewrite (Add ?x ?y) (Mul ?x ?y))
(run 4)
(extract root)
|}

let test_pushpop () =
  checkb "push/pop: join = reference, seminaive = naive" true
    (observe pushpop_src = observe ~naive:true pushpop_src);
  (* after a pop the snapshot's commutativity closure must be gone and
     the original association must still win extraction on cost ties *)
  let _, _, extracted, err = observe pushpop_src in
  checks "no error" "" err;
  checks "post-pop extraction" "(Add (Num 1) (Add (Num 2) (Num 3))) @5" extracted

(* ------------------------------------------------------------------ *)
(* The indexed extractor against the reference extractor                *)
(* ------------------------------------------------------------------ *)

(* Three classes at cost 1 reaching each other through free e-nodes: what
   each extracts to depends on the order candidates are tried in (see the
   same program in test_egglog). *)
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

(* Run [src] (budget faults fold into the graph as it stands), then every
   class must extract the same way through the per-class index as through
   the reference's naive fixpoint and table scans: same cost, same term,
   same [t_class] at every node, same DAG cost. *)
let extraction_mismatch src =
  let t = Interp.create ~max_nodes:3_000 () in
  (try Interp.run_string t src with Interp.Error _ -> ());
  match Fuzzing.Reference.extract_disagreements (Interp.egraph t) with
  | [] -> None
  | (cls, kind, detail) :: _ as bad ->
    Some
      (Printf.sprintf "%d class(es) disagree; e-class %d, %s: %s" (List.length bad) cls kind
         detail)

let extracts_like_reference src =
  match extraction_mismatch src with None -> true | Some m -> QCheck.Test.fail_report m

let test_extract_reference () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"index = reference extraction on random TRS" ~count:60
       (QCheck.make random_trs_gen) extracts_like_reference);
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"index = reference extraction, random costs and vectors"
       ~count:150
       (QCheck.make ~print:Fun.id costed_trs_gen)
       extracts_like_reference);
  List.iter
    (fun src -> Option.iter Alcotest.fail (extraction_mismatch src))
    [ delete_src; pushpop_src; candidate_order_src ]

(* ------------------------------------------------------------------ *)
(* Rebuild: a union made during a narrowed pass                         *)
(* ------------------------------------------------------------------ *)

(* A unary chain f f g over two fresh class pairs:
     f(x1)=y1  f(x2)=y2  f(y1)=z1  f(y2)=z2  g(z1)=w1  g(z2)=w2
   Unioning x1 and x2 forces y1~y2, then z1~z2, then w1~w2, each found by
   a later rebuild pass than the one before, the last in a table a
   narrowed pass may skip.  Whichever order the tables are visited in,
   one of the chains f f g and g g f makes a pass union classes while the
   other table lies outside the pass, and that table must still be
   re-canonicalized.  Each case builds the given chains in one e-graph,
   unions each chain's roots, rebuilds, and checks that the chain ends
   merged and that every row is canonical. *)
let narrowed_rebuild_case chains =
  let eg = Egraph.create () in
  Egraph.declare_sort eg "E";
  let decl name =
    Egraph.declare_function eg ~name ~args:[ "E" ] ~ret:"E" ~cost:None ~merge:None
      ~unextractable:false
  in
  let f = decl "f" and g = decl "g" in
  let app fn a =
    match Egraph.apply eg fn [| Value.Eclass a |] with
    | Some (Value.Eclass id) -> id
    | _ -> Alcotest.fail "constructor application did not return a class"
  in
  let chain (first, last) =
    let x1 = Egraph.fresh_class eg and x2 = Egraph.fresh_class eg in
    let y1 = app first x1 and y2 = app first x2 in
    let z1 = app first y1 and z2 = app first y2 in
    let w1 = app last z1 in
    let w2 = app last z2 in
    (x1, x2, w1, w2)
  in
  let fn name = if name = "f" then f else g in
  let ends = List.map (fun (first, last) -> chain (fn first, fn last)) chains in
  List.iter (fun (x1, x2, _, _) -> Egraph.union eg x1 x2) ends;
  Egraph.rebuild eg;
  List.iter2
    (fun (first, last) (_, _, w1, w2) ->
      checkb
        (Printf.sprintf "chain ends merged (%s after a %s chain)" last first)
        true
        (Egraph.find_class eg w1 = Egraph.find_class eg w2))
    chains ends;
  let canonical v = Value.is_canonical (Egraph.uf eg) v in
  let bad = ref 0 in
  List.iter
    (fun fn ->
      Egraph.iter_rows eg fn (fun args out ->
          if not (Array.for_all canonical args && canonical out) then incr bad))
    (Egraph.functions eg);
  checki "non-canonical rows after rebuild" 0 !bad

let test_narrowed_rebuild () =
  (* both directions in one e-graph, then each on its own: alone, the
     chain whose last table comes second in the visiting order is the
     one a pass narrowed to the first table would leave stale *)
  narrowed_rebuild_case [ ("f", "g"); ("g", "f") ];
  narrowed_rebuild_case [ ("f", "g") ];
  narrowed_rebuild_case [ ("g", "f") ]

(* ------------------------------------------------------------------ *)
(* n_nodes cache                                                        *)
(* ------------------------------------------------------------------ *)

let test_n_nodes_cache () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"n_nodes cache = recount after random TRS" ~count:60
       (QCheck.make random_trs_gen)
       (fun src ->
         let t = Interp.create ~max_nodes:3_000 () in
         (try Interp.run_string t src with Interp.Error _ -> ());
         Egraph.rebuild (Interp.egraph t);
         Egraph.n_nodes (Interp.egraph t)
         = Egraph.recount_nodes (Interp.egraph t)));
  (* and across the delete + push/pop paths *)
  List.iter
    (fun src ->
      let t = Interp.create () in
      (try Interp.run_string t src with Interp.Error _ -> ());
      let eg = Interp.egraph t in
      checki "cache consistent" (Egraph.recount_nodes eg) (Egraph.n_nodes eg))
    [ delete_src; pushpop_src ]

(* A table nobody wrote to shares its empty arrays with every other such
   table.  Every read works on it, and the first append into one copy
   allocates that copy's own arrays: the original, the other copies and
   new tables stay empty. *)
let test_empty_tables () =
  let key = [| 2; 4 |] in
  let empty what tbl =
    checki (what ^ ": no rows") 0 (Arena.n_rows tbl);
    checki (what ^ ": no live rows") 0 (Arena.n_live tbl);
    checki (what ^ ": find misses") (-1) (Arena.find tbl key);
    checki (what ^ ": the delta starts at row 0") 0 (Arena.delta_start tbl ~since:(-1));
    let seen = ref 0 in
    Arena.iter_live tbl (fun _ -> incr seen);
    checki (what ^ ": no live row visited") 0 !seen
  in
  let fresh = Arena.create ~arity:2 in
  empty "new" fresh;
  Arena.compact fresh;
  checki "compacting an empty table renumbers nothing" 0 (Arena.version fresh);
  empty "compacted" fresh;
  checkb "nothing to remove" false (Arena.remove fresh key);
  let a = Arena.copy fresh and b = Arena.copy fresh in
  empty "copy" a;
  let r = Arena.append a key 7 1 in
  checki "the appended row is found" r (Arena.find a key);
  checki "with its output" 7 (Arena.out_code a r);
  checki "one live row" 1 (Arena.n_live a);
  empty "the original" fresh;
  empty "the other copy" b;
  empty "a new table" (Arena.create ~arity:2);
  (* the other copy grows on arrays of its own *)
  for i = 1 to 40 do
    ignore (Arena.append b [| 2 * i; 0 |] 1 i)
  done;
  checki "the other copy grew" 40 (Arena.n_live b);
  checki "the first copy did not" 1 (Arena.n_live a);
  checki "the first copy's row is intact" r (Arena.find a key);
  empty "the original, still" fresh;
  (* the first append into a new table, not a copy *)
  let d = Arena.create ~arity:2 in
  ignore (Arena.append d key 9 1);
  checki "the new table has its row" 0 (Arena.find d key);
  empty "another new table" (Arena.create ~arity:2);
  empty "the original, after a new table's first append" fresh;
  let c = Arena.copy a in
  Arena.kill a r;
  Arena.compact a;
  checki "a copy of a written table is its own" r (Arena.find c key)

let () =
  Alcotest.run "arena"
    [
      ( "equivalence",
        [
          Alcotest.test_case "join = reference" `Slow test_join_reference;
          Alcotest.test_case "seminaive = naive" `Slow test_seminaive_naive;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "push/pop" `Quick test_pushpop;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "each compiled shape matches" `Quick test_shapes;
          Alcotest.test_case "global merged mid-run" `Quick test_global_merge;
          Alcotest.test_case "random premise shapes" `Slow test_random_shapes;
          Alcotest.test_case "random premise shapes, seminaive = naive" `Slow
            test_random_shapes_seminaive;
        ] );
      ( "extraction",
        [ Alcotest.test_case "index = reference" `Slow test_extract_reference ] );
      ( "rebuild",
        [ Alcotest.test_case "union during a narrowed pass" `Quick test_narrowed_rebuild ] );
      ( "stats",
        [ Alcotest.test_case "n_nodes cache" `Quick test_n_nodes_cache ] );
      ( "tables",
        [ Alcotest.test_case "never-written tables" `Quick test_empty_tables ] );
    ]
