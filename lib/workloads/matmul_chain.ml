(** Benchmarks 4 & 5 — 2MM and 3MM matrix-multiplication chains (paper
    §8.2), plus the parametric NMM chains used by the Table 2 scalability
    study.

    2MM computes (A·B)·C with the paper's exact sizes.  3MM computes
    ((A·B)·C)·D; the paper lists D = 250×10, which does not type-check
    against ((A·B)·C) : 200×150 — we use D = 150×10 (recorded in
    EXPERIMENTS.md as a known paper inconsistency).

    The scale parameter selects the chain length N (so [~scale:2] is 2MM);
    dimensions for N ≤ 4 follow the paper, longer chains draw seeded random
    dimensions. *)

let paper_dims_2mm = [ (100, 10); (10, 150); (150, 8) ]
let paper_dims_3mm = [ (200, 175); (175, 250); (250, 150); (150, 10) ]

(** Dimension chain for an N-matmul benchmark: N+1 sizes d0 x d1, d1 x d2, ... *)
let dims_for ~n ~seed : int list =
  if n = 2 then [ 100; 10; 150; 8 ]
  else if n = 3 then [ 200; 175; 250; 150; 10 ]
  else begin
    (* N matmuls multiply N+1 matrices, so N+2 dimension values *)
    let rng = Rng.create (seed + n) in
    List.init (n + 2) (fun _ -> 5 + Rng.int rng 60)
  end

(** MLIR source for a chain of [n] matmuls over f64 tensors. *)
let source_chain (dims : int list) : string =
  let dims = Array.of_list dims in
  let n = Array.length dims - 1 in
  let buf = Buffer.create 1024 in
  let ty i j = Printf.sprintf "tensor<%dx%dxf64>" dims.(i) dims.(j) in
  Buffer.add_string buf "func.func @mm_chain(";
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "%%m%d: %s" i (ty i (i + 1)))
  done;
  Buffer.add_string buf (Printf.sprintf ") -> %s {\n" (ty 0 n));
  (* acc0 = m0; acc_k = acc_{k-1} * m_k *)
  Buffer.add_string buf (Printf.sprintf "  %%e1 = tensor.empty() : %s\n" (ty 0 2));
  Buffer.add_string buf
    (Printf.sprintf
       "  %%acc1 = linalg.matmul ins(%%m0, %%m1 : %s, %s) outs(%%e1 : %s) -> %s\n"
       (ty 0 1) (ty 1 2) (ty 0 2) (ty 0 2));
  for k = 2 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  %%e%d = tensor.empty() : %s\n" k (ty 0 (k + 1)));
    Buffer.add_string buf
      (Printf.sprintf
         "  %%acc%d = linalg.matmul ins(%%acc%d, %%m%d : %s, %s) outs(%%e%d : %s) -> %s\n"
         k (k - 1) k (ty 0 k) (ty k (k + 1)) k (ty 0 (k + 1)) (ty 0 (k + 1)))
  done;
  Buffer.add_string buf (Printf.sprintf "  func.return %%acc%d : %s\n}\n" (n - 1) (ty 0 n));
  Buffer.contents buf

let source ~scale = source_chain (dims_for ~n:scale ~seed:42)

(** The fewest scalar multiplications any association of the chain needs,
    where matrix [i] is [dims.(i)] x [dims.(i+1)]: the textbook O(n^3)
    matrix-chain dynamic program, which knows nothing of the engine. *)
let chain_dp (dims : int array) =
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

(** Scalar multiplications of a module's [linalg.matmul] ops: the sum of
    m·k·n over them.
    @raise Invalid_argument when a matmul operand is not a rank-2 tensor. *)
let matmul_mults m =
  List.fold_left
    (fun acc (o : Mlir.Ir.op) ->
      match
        ( Mlir.Typ.shape o.Mlir.Ir.operands.(0).Mlir.Ir.v_type,
          Mlir.Typ.shape o.Mlir.Ir.operands.(1).Mlir.Ir.v_type )
      with
      | Some [ a; b ], Some [ _; c ] -> acc + (a * b * c)
      | _ -> invalid_arg "matmul_mults: a matmul operand is not a rank-2 tensor")
    0
    (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "linalg.matmul") m)

let make_input ~scale ~seed =
  let dims = Array.of_list (dims_for ~n:scale ~seed:42) in
  let rng = Rng.create seed in
  (* a chain of N matmuls multiplies N+1 matrices *)
  List.init (scale + 1) (fun i ->
      let r = dims.(i) and c = dims.(i + 1) in
      Benchmark.float_tensor [ r; c ]
        (Array.init (r * c) (fun _ -> Rng.float_range rng (-1.0) 1.0)))

(** OCaml reference: left-to-right chain product. *)
let reference (mats : (int * int * float array) list) : float array =
  let mul (m, k, a) (k', n, b) =
    assert (k = k');
    let out = Array.make (m * n) 0.0 in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0.0 in
        for l = 0 to k - 1 do
          acc := !acc +. (a.((i * k) + l) *. b.((l * n) + j))
        done;
        out.((i * n) + j) <- !acc
      done
    done;
    (m, n, out)
  in
  match mats with
  | first :: rest ->
    let _, _, data = List.fold_left mul first rest in
    data
  | [] -> [||]

let check ~scale ~input ~output =
  let dims = Array.of_list (dims_for ~n:scale ~seed:42) in
  match output with
  | [ out ] ->
    let mats =
      List.mapi (fun i rv -> (dims.(i), dims.(i + 1), Benchmark.as_float_data rv)) input
    in
    (* re-association changes summation order; tolerate rounding *)
    Benchmark.check_floats ~tol:1e-6 ~abs_floor:1e-6 (reference mats)
      (Benchmark.as_float_data out)
  | _ -> Error "unexpected output arity"

let benchmark_nmm n : Benchmark.t =
  {
    name = Printf.sprintf "%dMM" n;
    description = Printf.sprintf "chain of %d matrix multiplications" n;
    source = (fun ~scale:_ -> source ~scale:n);
    rules = Dialegg.Rules.matmul_assoc;
    main_func = "mm_chain";
    default_scale = n;
    paper_scale = n;
    make_input = (fun ~scale:_ ~seed -> make_input ~scale:n ~seed);
    check = (fun ~scale:_ ~input ~output -> check ~scale:n ~input ~output);
  }

let benchmark_2mm = benchmark_nmm 2
let benchmark_3mm = benchmark_nmm 3
