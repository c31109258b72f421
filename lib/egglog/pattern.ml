(* First-order term utilities over {!Ast.expr} patterns: structural
   equality, one-way matching, unification, anti-unification and
   alpha-equivalence.  These are the pattern-level primitives behind
   [Dialegg.Vet]'s rule-dependency, overlap and shadowing analyses; they
   treat patterns purely syntactically (no e-graph, no sorts). *)

open Ast

type binding = string * expr

(* Floats compare by bits so NaN-carrying patterns still compare equal to
   themselves, mirroring {!Constness.equal}. *)
let lit_equal (a : lit) (b : lit) =
  match (a, b) with
  | L_f64 x, L_f64 y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let rec equal (a : expr) (b : expr) =
  match (a, b) with
  | Var x, Var y -> String.equal x y
  | Wildcard, Wildcard -> true
  | Lit x, Lit y -> lit_equal x y
  | Call (f, xs), Call (g, ys) ->
    String.equal f g && List.length xs = List.length ys && List.for_all2 equal xs ys
  | _ -> false

let rec size = function
  | Var _ | Wildcard | Lit _ -> 1
  | Call (_, args) -> List.fold_left (fun n a -> n + size a) 1 args

let subterms (e : expr) : expr list =
  let acc = ref [] in
  let rec go e =
    acc := e :: !acc;
    match e with Call (_, args) -> List.iter go args | _ -> ()
  in
  go e;
  List.rev !acc

let is_subterm ~sub (e : expr) = List.exists (equal sub) (subterms e)

let rec rename ~suffix = function
  | Var x -> Var (x ^ suffix)
  | (Wildcard | Lit _) as e -> e
  | Call (f, args) -> Call (f, List.map (rename ~suffix) args)

let rec apply (bindings : binding list) (e : expr) =
  match e with
  | Var x -> ( match List.assoc_opt x bindings with Some t -> t | None -> e)
  | Wildcard | Lit _ -> e
  | Call (f, args) -> Call (f, List.map (apply bindings) args)

(* ------------------------------------------------------------------ *)
(* One-way matching                                                    *)
(* ------------------------------------------------------------------ *)

let match_pattern ~general (specific : expr) : binding list option =
  let bound : (string, expr) Hashtbl.t = Hashtbl.create 8 in
  let rec go g s =
    match (g, s) with
    | Wildcard, _ -> true
    | Var x, _ -> (
      match Hashtbl.find_opt bound x with
      | Some t -> equal t s
      | None ->
        Hashtbl.replace bound x s;
        true)
    | Lit a, Lit b -> lit_equal a b
    | Call (f, xs), Call (g', ys) ->
      String.equal f g' && List.length xs = List.length ys && List.for_all2 go xs ys
    | _ -> false
  in
  if go general specific then
    Some (Hashtbl.fold (fun k v acc -> (k, v) :: acc) bound [])
  else None

(* ------------------------------------------------------------------ *)
(* Unification                                                         *)
(* ------------------------------------------------------------------ *)

let unifiable ?(flex = fun (_ : string) -> false) (a : expr) (b : expr) : bool =
  let subst : (string, expr) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve e =
    match e with
    | Var x -> (
      match Hashtbl.find_opt subst x with Some e' -> resolve e' | None -> e)
    | _ -> e
  in
  let rec occurs x e =
    match resolve e with
    | Var y -> String.equal x y
    | Wildcard | Lit _ -> false
    | Call (_, args) -> List.exists (occurs x) args
  in
  let rec uni a b =
    let a = resolve a and b = resolve b in
    match (a, b) with
    | Wildcard, _ | _, Wildcard -> true
    | Var x, Var y when String.equal x y -> true
    | Var x, t | t, Var x ->
      if occurs x t then false
      else begin
        Hashtbl.replace subst x t;
        true
      end
    | Lit x, Lit y -> lit_equal x y
    (* a flexible head (a computed primitive) can produce any value *)
    | Call (f, _), _ when flex f -> true
    | _, Call (g, _) when flex g -> true
    | Call (f, xs), Call (g, ys) ->
      String.equal f g && List.length xs = List.length ys && List.for_all2 uni xs ys
    | _ -> false
  in
  uni a b

(* ------------------------------------------------------------------ *)
(* Alpha-equivalence                                                   *)
(* ------------------------------------------------------------------ *)

let alpha_bijection (a : expr) (b : expr) : binding list option =
  let ab : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let ba : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let rec go a b =
    match (a, b) with
    | Wildcard, Wildcard -> true
    | Var x, Var y -> (
      match (Hashtbl.find_opt ab x, Hashtbl.find_opt ba y) with
      | None, None ->
        Hashtbl.replace ab x y;
        Hashtbl.replace ba y x;
        true
      | Some y', Some x' -> String.equal y y' && String.equal x x'
      | _ -> false)
    | Lit x, Lit y -> lit_equal x y
    | Call (f, xs), Call (g, ys) ->
      String.equal f g && List.length xs = List.length ys && List.for_all2 go xs ys
    | _ -> false
  in
  if go a b then Some (Hashtbl.fold (fun x y acc -> (x, Var y) :: acc) ab []) else None
