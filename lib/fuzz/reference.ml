(* The brute-force reference matcher; see the interface for the model.
   Slow on purpose, and sharing none of the generic join's code. *)

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

type env = Value.t Matcher.Env.t

let is_table f = not (Primitives.is_primitive f)

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
    match Hashtbl.find_opt globals x with
    | Some v when x.[0] <> '?' -> T_val (Egraph.canon eg v)
    | _ ->
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
    | Lit l -> (T_val (Matcher.value_of_lit l), [], [])
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
    match Matcher.Env.find_opt x env with
    | Some b -> if same eg b v then Some env else None
    | None -> Some (Matcher.Env.add x (Egraph.canon eg v) env))
  | T_prim _ -> invalid_arg "reference matcher: primitive in an atom"

(* the value of [t]: [None] while a variable in it is unbound, [Error ()]
   when a primitive fails *)
let rec value eg env t : (Value.t, unit) result option =
  match t with
  | T_val v -> Some (Ok v)
  | T_any -> None
  | T_var x -> Option.map Result.ok (Matcher.Env.find_opt x env)
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
  | T_var x, None -> Some (Some (Matcher.Env.add x (Egraph.canon eg v) env))
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
let matches eg globals (facts : Ast.fact list) : (string * Value.t) list list =
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
          List.filter_map
            (fun x -> Option.map (fun v -> (x, v)) (Matcher.Env.find_opt x env))
            own
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
  loop Matcher.Env.empty atoms;
  List.sort_uniq compare !found

(** The join's answer in the same shape as {!matches}. *)
let of_envs eg (envs : Matcher.env list) : (string * Value.t) list list =
  List.sort_uniq compare
    (List.map
       (fun env -> List.map (fun (x, v) -> (x, Egraph.canon eg v)) (Matcher.Env.bindings env))
       envs)

(** Every rule of [t] whose full match set through the generic join
    differs from {!matches}, with the join's and the reference's number
    of matches. *)
let disagreements (t : Interp.t) : (string * int * int) list =
  let eg = Interp.egraph t in
  List.filter_map
    (fun (name, facts) ->
      let join = of_envs eg (Interp.query t facts) in
      let reference = matches eg (Interp.globals t) facts in
      if join = reference then None
      else Some (name, List.length join, List.length reference))
    (Interp.premises t)
