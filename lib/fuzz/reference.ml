(* The brute-force reference matcher and extractor; see the interface for
   the models.  Slow on purpose, sharing none of the join's code
   and none of the extractor's index. *)

open Egglog

type term =
  | T_var of string
  | T_val of Value.t  (* a literal, or a global's canonical value *)
  | T_any
  | T_prim of string * term list  (* evaluated: a primitive, vec-of included *)

type atom = { fn : Egraph.func; args : term list; out : term }

type constr =
  | C_holds of term  (* the value exists and is not [false] *)
  | C_equal of term list  (* every term has one value *)

module Env = Map.Make (String)

type env = Value.t Env.t

let is_table f = not (Primitives.is_primitive f)

let value_of_lit : Ast.lit -> Value.t = function
  | L_i64 n -> I64 n
  | L_f64 f -> F64 f
  | L_string s -> Str s
  | L_bool b -> Bool b
  | L_unit -> Unit

(* The normal form of [facts]: atoms (a table application before the ones
   nested in it, so inner scans always filter on a bound output) and
   constraints, plus the premises' own variable names. *)
let normalize eg globals (facts : Ast.fact list) =
  let n = ref 0 in
  let fresh () =
    incr n;
    T_var (Printf.sprintf "%%%d" !n)
  in
  let own = ref [] in
  let var x =
    match List.assoc_opt x globals with
    | Some v -> T_val (Egraph.canon eg v)
    | None ->
      if not (List.mem x !own) then own := x :: !own;
      T_var x
  in
  let func f =
    match Egraph.find_func_opt eg (Symbol.intern f) with
    | Some fn -> fn
    | None -> invalid_arg ("reference matcher: unknown function " ^ f)
  in
  (* each returns (term, atoms, constraints) *)
  let rec slot (e : Ast.expr) =
    match e with
    | Var x -> (var x, [], [])
    | Lit l -> (T_val (value_of_lit l), [], [])
    | Wildcard -> (T_any, [], [])
    | Call (f, args) when is_table f ->
      let v = fresh () in
      let atoms, cs = call f args v in
      (v, atoms, cs)
    | Call _ ->
      let t, atoms, cs = eval e in
      let v = fresh () in
      (v, atoms, cs @ [ C_equal [ v; t ] ])
  and eval (e : Ast.expr) =
    match e with
    | Call (f, args) when not (is_table f) ->
      let parts = List.map eval args in
      ( T_prim (f, List.map (fun (t, _, _) -> t) parts),
        List.concat_map (fun (_, a, _) -> a) parts,
        List.concat_map (fun (_, _, c) -> c) parts )
    | _ -> slot e
  and call f args out =
    let parts = List.map slot args in
    ( { fn = func f; args = List.map (fun (t, _, _) -> t) parts; out }
      :: List.concat_map (fun (_, a, _) -> a) parts,
      List.concat_map (fun (_, _, c) -> c) parts )
  in
  let fact (f : Ast.fact) =
    match f with
    | F_expr e ->
      let t, atoms, cs = eval e in
      (atoms, cs @ [ C_holds t ])
    | F_eq es ->
      (* every table application in the equation shares one output *)
      let calls, others =
        List.partition (function Ast.Call (f, _) -> is_table f | _ -> false) es
      in
      let shared = if calls = [] then [] else [ fresh () ] in
      let called =
        List.concat_map
          (function Ast.Call (f, args) -> List.map (call f args) shared | _ -> [])
          calls
      in
      let parts = List.map eval others in
      ( List.concat_map fst called @ List.concat_map (fun (_, a, _) -> a) parts,
        List.concat_map snd called
        @ List.concat_map (fun (_, _, c) -> c) parts
        @ [ C_equal (shared @ List.map (fun (t, _, _) -> t) parts) ] )
  in
  let parts = List.map fact facts in
  (List.concat_map fst parts, List.concat_map snd parts, List.rev !own)

let same eg a b = Value.equal (Egraph.canon eg a) (Egraph.canon eg b)

(* unify a term with a row value *)
let unify eg env t v =
  match t with
  | T_any -> Some env
  | T_val c -> if same eg c v then Some env else None
  | T_var x -> (
    match Env.find_opt x env with
    | Some b -> if same eg b v then Some env else None
    | None -> Some (Env.add x (Egraph.canon eg v) env))
  | T_prim _ -> invalid_arg "reference matcher: primitive in an atom"

(* the value of [t]: [None] while a variable in it is unbound, [Error ()]
   when a primitive fails *)
let rec value eg env t : (Value.t, unit) result option =
  match t with
  | T_val v -> Some (Ok v)
  | T_any -> None
  | T_var x -> Option.map Result.ok (Env.find_opt x env)
  | T_prim (f, args) ->
    let rec go acc = function
      | [] -> (
        try Some (Ok (Primitives.apply f (List.rev acc)))
        with Primitives.Error _ -> Some (Error ()))
      | a :: rest -> (
        match value eg env a with
        | Some (Ok v) -> go (v :: acc) rest
        | other -> other)
    in
    go [] args

(* make [t] equal [v], binding what it can: [None] = not ready yet *)
let rec bind eg env t v : env option option =
  match (t, value eg env t) with
  | _, Some (Ok w) -> Some (if same eg w v then Some env else None)
  | _, Some (Error ()) -> Some None
  | T_any, None -> Some (Some env)
  | T_var x, None -> Some (Some (Env.add x (Egraph.canon eg v) env))
  | T_prim ("vec-of", elems), None -> (
    match v with
    | Value.Vec vs when Array.length vs = List.length elems ->
      List.fold_left
        (fun acc (t, v) ->
          match acc with Some (Some env) -> bind eg env t v | other -> other)
        (Some (Some env))
        (List.combine elems (Array.to_list vs))
    | _ -> Some None)
  | _, None -> None

(* [None] = the constraint cannot run yet *)
let step eg env c : env option option =
  match c with
  | C_holds t -> (
    match value eg env t with
    | Some (Ok (Value.Bool false)) | Some (Error ()) -> Some None
    | Some (Ok _) -> Some (Some env)
    | None -> None)
  | C_equal ts -> (
    match List.find_map (fun t -> Option.map (fun r -> (t, r)) (value eg env t)) ts with
    | None -> None
    | Some (_, Error ()) -> Some None
    | Some (_, Ok v) ->
      List.fold_left
        (fun acc t ->
          match acc with
          | Some (Some env) -> bind eg env t v
          | other -> other)
        (Some (Some env))
        ts)

(* run the constraints, each as soon as it is ready *)
let rec settle eg env = function
  | [] -> Some env
  | cs ->
    let rec first seen = function
      | [] -> None  (* nothing can run: the premises cannot be decided *)
      | c :: rest -> (
        match step eg env c with
        | None -> first (c :: seen) rest
        | Some None -> Some None
        | Some (Some env) -> Some (Some (env, List.rev_append seen rest)))
    in
    match first [] cs with
    | None | Some None -> None
    | Some (Some (env, rest)) -> settle eg env rest

(** Every binding of [facts]' own variables in [eg] (which must be
    rebuilt), as a sorted, duplicate-free list of sorted binding lists. *)
let matches eg ~globals (facts : Ast.fact list) : (string * Value.t) list list =
  let atoms, cs, own = normalize eg globals facts in
  let own = List.sort compare own in
  let rows = Hashtbl.create 8 in
  let rows_of (fn : Egraph.func) =
    match Hashtbl.find_opt rows fn.Egraph.sym with
    | Some r -> r
    | None ->
      let r = ref [] in
      Egraph.iter_rows eg fn (fun args out -> r := (Array.to_list args, out) :: !r);
      let r = List.rev !r in
      Hashtbl.add rows fn.Egraph.sym r;
      r
  in
  let found = ref [] in
  let rec loop env = function
    | [] -> (
      match settle eg env cs with
      | Some env ->
        found :=
          List.filter_map (fun x -> Option.map (fun v -> (x, v)) (Env.find_opt x env)) own
          :: !found
      | None -> ())
    | a :: rest ->
      List.iter
        (fun (args, out) ->
          if List.length args = List.length a.args then
            let env =
              List.fold_left2
                (fun acc t v -> Option.bind acc (fun env -> unify eg env t v))
                (unify eg env a.out out) a.args args
            in
            Option.iter (fun env -> loop env rest) env)
        (rows_of a.fn)
  in
  loop Env.empty atoms;
  List.sort_uniq compare !found

(** Every rule of [t] whose full match set through the join
    differs from {!matches} under the globals the rule pinned, with the
    join's and the reference's number of matches. *)
let disagreements (t : Interp.t) : (string * int * int) list =
  let eg = Interp.egraph t in
  List.filter_map
    (fun (name, facts, pinned) ->
      let join = List.sort_uniq compare (Interp.query ~pinned t facts) in
      let globals = List.map (fun x -> (x, Interp.global t x)) pinned in
      let reference = matches eg ~globals facts in
      if join = reference then None
      else Some (name, List.length join, List.length reference))
    (Interp.premises t)

(* ------------------------------------------------------------------ *)
(* The reference extractor                                             *)
(* ------------------------------------------------------------------ *)

(* what [Extract.cost_of_class] reports for a class with no finite term *)
let infinity_cost = max_int / 4

type extractor = {
  x_eg : Egraph.t;
  x_rows : (int * Egraph.func * (Value.t array * int) list) list;
      (* every extractable table with its declaration index, and its rows
         as (canonical args, canonical output class) in iteration order *)
  x_cost : (int, int) Hashtbl.t;
  x_memo : (int, Extract.term) Hashtbl.t;
  x_chosen : (int, int) Hashtbl.t;
  x_busy : (int, unit) Hashtbl.t;
}

let fail fmt = Fmt.kstr (fun s -> raise (Extract.Error s)) fmt
let sum a b = min infinity_cost (min a infinity_cost + min b infinity_cost)

let cost_of x cls =
  Option.value (Hashtbl.find_opt x.x_cost (Egraph.find_class x.x_eg cls)) ~default:infinity_cost

let rec value_cost x (v : Value.t) =
  match v with
  | Eclass id -> cost_of x id
  | Vec vs -> Array.fold_left (fun acc v -> sum acc (value_cost x v)) 0 vs
  | _ -> 0

let base_cost x (f : Egraph.func) args =
  match Egraph.cost_override x.x_eg f args with
  | Some c -> c
  | None -> Option.value f.cost ~default:1

let node_cost x f args =
  Array.fold_left
    (fun acc v -> sum acc (value_cost x v))
    (min infinity_cost (base_cost x f args))
    args

(** The naive extractor: class costs by passes over every row until none
    gets cheaper. *)
let extractor eg =
  let x_rows =
    List.concat
      (List.mapi
         (fun fi (f : Egraph.func) ->
           if Egraph.is_constructor f && not f.unextractable then begin
             let rows = ref [] in
             Egraph.iter_rows eg f (fun args out ->
                 match out with
                 | Value.Eclass id -> rows := (args, Egraph.find_class eg id) :: !rows
                 | _ -> ());
             [ (fi, f, List.rev !rows) ]
           end
           else [])
         (Egraph.functions eg))
  in
  let x =
    {
      x_eg = eg;
      x_rows;
      x_cost = Hashtbl.create 64;
      x_memo = Hashtbl.create 64;
      x_chosen = Hashtbl.create 64;
      x_busy = Hashtbl.create 16;
    }
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (_, f, rows) ->
        List.iter
          (fun (args, cls) ->
            let c = node_cost x f args in
            if c < cost_of x cls then begin
              Hashtbl.replace x.x_cost cls c;
              changed := true
            end)
          rows)
      x_rows
  done;
  x

let compare_keys (fi1, sub1) (fi2, sub2) =
  match Int.compare fi1 fi2 with
  | 0 -> List.compare Extract.term_compare sub1 sub2
  | c -> c

(** The cheapest term of [cls], found by scanning every table for the
    class's e-nodes.  Equal-cost e-nodes are tried last row first
    (functions in reverse declaration order); the winner is the first with
    the smallest (declaration index, extracted arguments), skipping those
    whose extraction cycles back into a class being extracted. *)
let rec extract_class x cls : Extract.term =
  let cls = Egraph.find_class x.x_eg cls in
  match Hashtbl.find_opt x.x_memo cls with
  | Some t -> t
  | None ->
    if Hashtbl.mem x.x_busy cls then fail "e-class %d is cyclic through zero-cost e-nodes" cls;
    let best = cost_of x cls in
    if best >= infinity_cost then
      fail "e-class %d has no finite-cost term (cyclic with no base case)" cls;
    Hashtbl.replace x.x_busy cls ();
    let enodes =
      List.concat_map
        (fun (fi, f, rows) ->
          List.filter_map
            (fun (args, out) -> if out = cls then Some (fi, f, args) else None)
            rows)
        x.x_rows
    in
    let cands = List.rev (List.filter (fun (_, f, args) -> node_cost x f args = best) enodes) in
    let args_of args = List.map (extract_value x) (Array.to_list args) in
    let _, (f : Egraph.func), args, sub =
      match cands with
      | [] -> fail "e-class %d has no e-nodes to extract" cls
      | [ (fi, f, args) ] -> (fi, f, args, args_of args)
      | cands -> (
        let ok =
          List.filter_map
            (fun (fi, f, args) ->
              match args_of args with
              | sub -> Some (fi, f, args, sub)
              | exception Extract.Error _ -> None)
            cands
        in
        match ok with
        | [] -> fail "e-class %d has no acyclic minimal e-node" cls
        | first :: rest ->
          List.fold_left
            (fun ((bfi, _, _, bsub) as b) ((fi, _, _, sub) as c) ->
              if compare_keys (fi, sub) (bfi, bsub) < 0 then c else b)
            first rest)
    in
    Hashtbl.remove x.x_busy cls;
    Hashtbl.replace x.x_chosen cls (base_cost x f args);
    let t = Extract.node ~cls f.sym sub in
    Hashtbl.replace x.x_memo cls t;
    t

and extract_value x (v : Value.t) : Extract.term =
  match v with
  | Eclass id -> extract_class x id
  | Vec vs -> Extract.t_vec (List.map (extract_value x) (Array.to_list vs))
  | p -> Extract.prim p

(* every distinct class of the term counted once, at its chosen base cost *)
let dag_cost x (t : Extract.term) =
  let seen = Hashtbl.create 64 in
  let rec go acc (t : Extract.term) =
    match t.t_class with
    | Some c when Hashtbl.mem seen c -> acc
    | Some c ->
      Hashtbl.replace seen c ();
      let acc = acc + Option.value ~default:1 (Hashtbl.find_opt x.x_chosen c) in
      List.fold_left go acc (Extract.children t)
    | None -> List.fold_left go acc (Extract.children t)
  in
  go 0 t

(* same structure and the same [t_class] at every node *)
let rec same_term (a : Extract.term) (b : Extract.term) =
  a.t_class = b.t_class
  &&
  match (a.t_kind, b.t_kind) with
  | Node (s1, l1), Node (s2, l2) -> Symbol.equal s1 s2 && List.equal same_term l1 l2
  | T_vec l1, T_vec l2 -> List.equal same_term l1 l2
  | Prim v1, Prim v2 -> Value.equal v1 v2
  | _ -> false

(** Every canonical class of [eg] whose extraction through {!Extract}
    differs from the reference's: cost, term (printed and with its
    [t_class] at every node), DAG cost, or error. *)
let extract_disagreements eg : (int * string * string) list =
  Egraph.rebuild eg;
  let ex = Extract.make eg and x = extractor eg in
  let show = function
    | Ok (t, dag) -> Printf.sprintf "%s dag %d" (Extract.term_to_string t) dag
    | Error m -> "error: " ^ m
  in
  let attempt f = try Ok (f ()) with Extract.Error m -> Error m in
  let uf = Egraph.uf eg in
  let bad = ref [] in
  (* newest class first: roots are built after their sub-terms, and what a
     class extracts to can depend on which classes are being extracted
     when it is reached, so this is the order that exercises it *)
  for c = Union_find.size uf - 1 downto 0 do
    if Union_find.is_canonical uf c then begin
      let got =
        attempt (fun () ->
            let t = Extract.extract_class ex c in
            (t, Extract.dag_cost ex t))
      in
      let want =
        attempt (fun () ->
            let t = extract_class x c in
            (t, dag_cost x t))
      in
      let c1 = Extract.cost_of_class ex c and c2 = cost_of x c in
      let kind =
        if c1 <> c2 then Some "cost"
        else
          match (got, want) with
          | Ok (t1, d1), Ok (t2, d2) ->
            if not (same_term t1 t2) then Some "term"
            else if d1 <> d2 then Some "dag-cost"
            else None
          | Error m1, Error m2 when m1 = m2 -> None
          | _ -> Some "error"
      in
      Option.iter
        (fun kind ->
          bad :=
            ( c,
              kind,
              Printf.sprintf "index %s @%d, reference %s @%d" (show got) c1 (show want) c2 )
            :: !bad)
        kind
    end
  done;
  !bad
