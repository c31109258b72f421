(** Extraction: finding the lowest-cost term of an e-class.

    The cost of an e-node [(f a1 ... an)] is

    {v base(f, args) + sum of the costs of every e-class referenced by
       the arguments (including e-classes nested inside vector values) v}

    where [base] is the [unstable-cost] override for that exact e-node if
    one was set (the paper's §6.2 variable cost models), otherwise the
    [:cost] of the constructor, otherwise 1.  Primitive leaf values cost 0.
    Every sum saturates at [infinity_cost] ({!Egraph.cost_cap}), so no
    number of infinite children can wrap around to a cheap-looking cost.
    Like egg/egglog, shared sub-DAGs are counted once per reference (tree
    cost), which is the standard extraction approximation.

    {!make} walks each extractable table once.  Every live row becomes an
    e-node record — head declaration index, arguments, base cost (override
    looked up once), child classes with vectors flattened — filed under
    its output class.  Class costs are then a fixpoint from ⊤ (infinite)
    over an array indexed by class id: passes over the e-nodes repeat
    until no class gets cheaper.  Base costs are never negative (a
    negative [:cost] or [unstable-cost] is rejected where it is declared
    or set), so an optimal derivation never repeats a class along a path
    and the passes stop after at most one more than the number of
    classes.  E-classes with no finite derivation (purely cyclic) keep
    infinite cost, and extracting them is an error; so is extracting a
    class whose every term sums to the cap ([cost-overflow]).  Extracting
    a class reads only that class's own e-nodes.

    Every extracted constructor term records the e-class it was extracted
    from ([t_class]); terms are memoized per class, so shared sub-terms are
    physically shared — DialEgg's de-eggifier uses both properties to
    rebuild SSA sharing and region structure. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(** An extracted term.  Vectors are flattened into [T_vec] nodes so that no
    raw e-class ids remain anywhere in the result. *)
type term = { t_kind : kind; t_class : int option }

and kind =
  | Node of Symbol.t * term list  (** constructor application *)
  | Prim of Value.t  (** primitive leaf (never contains an e-class) *)
  | T_vec of term list  (** extracted vector value *)

let node ?cls sym args = { t_kind = Node (sym, args); t_class = cls }
let prim v = { t_kind = Prim v; t_class = None }
let t_vec ts = { t_kind = T_vec ts; t_class = None }

let rec pp_term ppf t =
  match t.t_kind with
  | Node (sym, []) -> Fmt.pf ppf "(%a)" Symbol.pp sym
  | Node (sym, args) ->
    Fmt.pf ppf "(@[<hov>%a@ %a@])" Symbol.pp sym (Fmt.list ~sep:Fmt.sp pp_term) args
  | Prim (Str s) -> Fmt.pf ppf "\"%s\"" (Sexp.escape_string s)
  | Prim (I64 n) -> Fmt.pf ppf "%Ld" n
  | Prim (F64 f) ->
    let s = Printf.sprintf "%.17g" f in
    let s =
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
      else s ^ ".0"
    in
    Fmt.string ppf s
  | Prim v -> Value.pp ppf v
  | T_vec elems -> Fmt.pf ppf "(@[<hov>vec-of@ %a@])" (Fmt.list ~sep:Fmt.sp pp_term) elems

let term_to_string t = Fmt.str "%a" pp_term t

let rec term_equal a b =
  match (a.t_kind, b.t_kind) with
  | Node (s1, a1), Node (s2, a2) ->
    Symbol.equal s1 s2 && List.length a1 = List.length a2 && List.for_all2 term_equal a1 a2
  | Prim v1, Prim v2 -> Value.equal v1 v2
  | T_vec a1, T_vec a2 -> List.length a1 = List.length a2 && List.for_all2 term_equal a1 a2
  | _ -> false

(** Total order on terms by structure only — symbol names and primitive
    payloads, never e-class ids — so it agrees across storage engines that
    number classes differently.  [Prim] leaves never contain e-classes, so
    polymorphic compare is safe there. *)
let rec term_compare a b =
  match (a.t_kind, b.t_kind) with
  | Prim v1, Prim v2 -> Stdlib.compare v1 v2
  | Prim _, _ -> -1
  | _, Prim _ -> 1
  | Node (s1, a1), Node (s2, a2) ->
    let c = String.compare (Symbol.name s1) (Symbol.name s2) in
    if c <> 0 then c else term_list_compare a1 a2
  | Node _, _ -> -1
  | _, Node _ -> 1
  | T_vec a1, T_vec a2 -> term_list_compare a1 a2

and term_list_compare l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
    let c = term_compare x y in
    if c <> 0 then c else term_list_compare xs ys

(** Head symbol name of a constructor term. *)
let head t = match t.t_kind with Node (sym, _) -> Some (Symbol.name sym) | _ -> None

let children t =
  match t.t_kind with Node (_, args) -> args | T_vec args -> args | Prim _ -> []

(* ------------------------------------------------------------------ *)
(* Cost computation                                                    *)
(* ------------------------------------------------------------------ *)

let infinity_cost = Egraph.cost_cap

(* [a + b] for costs [a, b >= 0], saturating at [infinity_cost] *)
let add_cost a b = if a >= infinity_cost - b then infinity_cost else a + b

(** One e-node: a live row of an extractable constructor table. *)
type enode = {
  n_fi : int;  (** declaration index of the head function (tie-break key) *)
  n_func : Egraph.func;
  n_args : Value.t array;  (** canonical arguments *)
  n_base : int;  (** the [unstable-cost] override, else [:cost], else 1 *)
  n_kids : int array;
      (** canonical child classes, vectors flattened, one entry per
          reference (order irrelevant: they are only summed) *)
  n_class : int;  (** canonical output class *)
}

type t = {
  eg : Egraph.t;
  cost : int array;  (** canonical class id -> best cost *)
  nodes : enode list array;
      (** canonical class id -> its e-nodes, last row first: functions in
          reverse declaration order, rows in reverse [Arena.iter_live]
          order — the order candidates reach the tie-break in *)
  memo : (int, term) Hashtbl.t;  (** canonical class id -> extracted term *)
  chosen : (int, int) Hashtbl.t;
      (** canonical class id -> base cost of the e-node extraction picked
          (with any unstable-cost override applied); feeds {!dag_cost} *)
  extracting : (int, unit) Hashtbl.t;
      (** classes currently being extracted — guards the tie-break against
          zero-cost self-referencing candidates *)
}

let class_cost st cls =
  let cls = Egraph.find_class st.eg cls in
  if cls < Array.length st.cost then st.cost.(cls) else infinity_cost

let nodes_of st cls = if cls < Array.length st.nodes then st.nodes.(cls) else []

(** Sum of costs of every e-class referenced inside [v]. *)
let rec value_cost st (v : Value.t) =
  match v with
  | Eclass id -> class_cost st id
  | Vec elems -> Array.fold_left (fun acc e -> add_cost acc (value_cost st e)) 0 elems
  | _ -> 0

let node_cost (cost : int array) n =
  let c = ref (min n.n_base infinity_cost) in
  for i = 0 to Array.length n.n_kids - 1 do
    c := add_cost !c cost.(n.n_kids.(i))
  done;
  !c

let child_classes eg (args : Value.t array) =
  let acc = ref [] in
  let rec go (v : Value.t) =
    match v with
    | Eclass id -> acc := Egraph.find_class eg id :: !acc
    | Vec elems -> Array.iter go elems
    | _ -> ()
  in
  Array.iter go args;
  Array.of_list !acc

(** Build an extractor: index every e-node under its class, then compute
    the best cost of every e-class by fixpoint.  The e-graph must be
    rebuilt.  Each row's [unstable-cost] override is found by the row's
    canonical codes (as stored, on a clean graph). *)
let make eg : t =
  let size = Union_find.size (Egraph.uf eg) in
  let pool = Egraph.pool eg and clean = not eg.Egraph.pending_unions in
  let nodes = Array.make size [] in
  let walk = ref [] in
  List.iteri
    (fun fi (f : Egraph.func) ->
      if Egraph.is_constructor f && not f.unextractable then begin
        let a = f.store in
        Arena.iter_live a (fun r ->
            let key =
              Array.init (Array.length f.arg_sorts) (fun i ->
                  let c = Arena.arg_code a r i in
                  if clean then c else Egraph.canon_code eg c)
            in
            let cls = Egraph.find_class eg (Arena.class_of_code (Arena.out_code a r)) in
            let base =
              match Egraph.cost_override_codes eg f key with
              | Some c -> c
              | None -> Option.value f.cost ~default:1
            in
            let args = Array.map (Arena.decode pool) key in
            let n =
              {
                n_fi = fi;
                n_func = f;
                n_args = args;
                n_base = base;
                n_kids = child_classes eg args;
                n_class = cls;
              }
            in
            nodes.(cls) <- n :: nodes.(cls);
            walk := n :: !walk)
      end)
    (Egraph.functions eg);
  (* passes in walk order, which is roughly bottom-up: rows are appended
     after the rows their children came from *)
  let walk = Array.of_list (List.rev !walk) in
  let cost = Array.make size infinity_cost in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun n ->
        let c = node_cost cost n in
        if c < cost.(n.n_class) then begin
          cost.(n.n_class) <- c;
          changed := true
        end)
      walk
  done;
  {
    eg;
    cost;
    nodes;
    memo = Hashtbl.create 64;
    chosen = Hashtbl.create 64;
    extracting = Hashtbl.create 16;
  }

(* Does class [cls] have a term at all, whatever it costs?  Asked only
   when its cost reached the cap, to tell an overflowing sum from a
   cycle with no base case. *)
let has_term st cls =
  let ok = Array.make (Array.length st.nodes) false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun c ns ->
        if (not ok.(c)) && List.exists (fun n -> Array.for_all (Array.get ok) n.n_kids) ns
        then begin
          ok.(c) <- true;
          changed := true
        end)
      st.nodes
  done;
  cls < Array.length ok && ok.(cls)

(* ------------------------------------------------------------------ *)
(* Term extraction                                                     *)
(* ------------------------------------------------------------------ *)

(** Extract the lowest-cost term of e-class [cls].  Memoized per class, so
    shared sub-terms are physically shared. *)
let rec extract_class st cls : term =
  let cls = Egraph.find_class st.eg cls in
  match Hashtbl.find_opt st.memo cls with
  | Some t -> t
  | None ->
    if Hashtbl.mem st.extracting cls then
      error "e-class %d is cyclic through zero-cost e-nodes" cls;
    let best_cost = class_cost st cls in
    if best_cost >= infinity_cost then
      if has_term st cls then
        error "cost-overflow: every term of e-class %d costs at least the cap %d" cls
          infinity_cost
      else error "e-class %d has no finite-cost term (cyclic with no base case)" cls;
    Hashtbl.replace st.extracting cls ();
    (* Every minimal-cost candidate, keyed by its function's declaration
       index.  Keeping just the first winner would make the choice depend
       on row iteration order. *)
    let cands = List.filter (fun n -> node_cost st.cost n = best_cost) (nodes_of st cls) in
    let n, sub =
      match cands with
      | [] -> error "e-class %d has no e-nodes to extract" cls
      | [ n ] -> (n, extract_args st n)
      | cands ->
        (* Deterministic tie-break: declaration order of the head function,
           then the extracted argument terms compared structurally.  Both
           keys are independent of e-class numbering and row order.
           Candidates whose extraction cycles back into this class are
           discarded. *)
        let keyed =
          List.filter_map
            (fun n ->
              match extract_args st n with
              | sub -> Some ((n.n_fi, sub), (n, sub))
              | exception Error _ -> None)
            cands
        in
        let best =
          List.fold_left
            (fun acc ((key, _) as cand) ->
              match acc with
              | Some ((bkey, _) : (int * term list) * _)
                when compare_keys bkey key <= 0 ->
                acc
              | _ -> Some cand)
            None keyed
        in
        (match best with
        | Some (_, chosen) -> chosen
        | None -> error "e-class %d has no acyclic minimal e-node" cls)
    in
    Hashtbl.remove st.extracting cls;
    Hashtbl.replace st.chosen cls n.n_base;
    let term = node ~cls n.n_func.Egraph.sym sub in
    Hashtbl.replace st.memo cls term;
    term

and compare_keys (fi1, sub1) (fi2, sub2) =
  let c = Int.compare fi1 fi2 in
  if c <> 0 then c else term_list_compare sub1 sub2

and extract_args st n = Array.to_list n.n_args |> List.map (extract_value st)

and extract_value st (v : Value.t) : term =
  match v with
  | Eclass id -> extract_class st id
  | Vec elems -> t_vec (Array.to_list elems |> List.map (extract_value st))
  | p -> prim p

(** [extract eg v] extracts the best term for value [v] (an e-class ref, a
    vector, or a primitive).  Returns the term and its cost. *)
let extract eg (v : Value.t) : term * int =
  let st = make eg in
  let v = Egraph.canon eg v in
  (extract_value st v, value_cost st v)

(** [variants st cls n] extracts up to [n] distinct terms of class [cls],
    cheapest first: one per e-node of the class, ordered by cost (children
    always extract optimally; only the root node varies — egglog's
    [extract :variants] behaves the same way). *)
let variants (st : t) cls n : (term * int) list =
  let cls = Egraph.find_class st.eg cls in
  let candidates =
    List.filter_map
      (fun nd ->
        let c = node_cost st.cost nd in
        if c >= infinity_cost then None
        else
          match extract_args st nd with
          | sub -> Some (c, nd, sub)
          | exception Error _ -> None)
      (List.rev (nodes_of st cls))
  in
  (* cheapest first; ties broken like {!extract_class} *)
  let sorted =
    List.sort
      (fun (c1, n1, s1) (c2, n2, s2) ->
        let c = Int.compare c1 c2 in
        if c <> 0 then c else compare_keys (n1.n_fi, s1) (n2.n_fi, s2))
      candidates
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | (c, nd, sub) :: rest -> (node ~cls nd.n_func.Egraph.sym sub, c) :: take (k - 1) rest
  in
  take n sorted

(** DAG cost of an extracted term: every distinct e-class is counted once,
    unlike the tree cost, which recounts shared sub-terms at every use.
    This is what the program actually costs once it is in SSA form.  Only
    meaningful for terms produced by [st]'s own extraction. *)
let dag_cost (st : t) (root : term) : int =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  let rec go t =
    match t.t_class with
    | Some cls when Hashtbl.mem seen cls -> ()
    | cls_opt ->
      (match cls_opt with
      | Some cls ->
        Hashtbl.replace seen cls ();
        total := !total + Option.value ~default:1 (Hashtbl.find_opt st.chosen cls)
      | None -> ());
      List.iter go (children t)
  in
  go root;
  !total

(** Expose the per-class best cost (infinite classes return a large value). *)
let cost_of_class (st : t) cls = class_cost st cls
