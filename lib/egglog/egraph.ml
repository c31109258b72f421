(** The e-graph, represented as a functional database (the Egglog model).

    Every Egglog function — including datatype constructors — is a {e table}
    mapping a tuple of argument values to one output value.  Constructors are
    tables whose output sort is an equivalence sort: looking up a missing row
    allocates a fresh e-class, which makes the table a hash-cons.  An e-node
    is therefore a table row, and the set of rows whose output is (congruent
    to) class [c] is the set of e-nodes in [c].

    Unification is a union-find over e-class ids.  After unions, tables may
    contain stale (non-canonical) keys; {!rebuild} restores the invariant
    that all keys and outputs are canonical, merging rows that collide
    (congruence closure) until a fixed point is reached.

    Every table is a flat {!Arena} of int codes, appended in stamp order so
    the table {e is} its own seminaive journal, with congruence lookups
    through one open-addressing int hash.  The matcher's column indexes
    and its join run on these arrays directly. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Sorts                                                               *)
(* ------------------------------------------------------------------ *)

type sort_kind =
  | S_i64
  | S_f64
  | S_string
  | S_bool
  | S_unit
  | S_eq of string  (** user-declared equivalence sort *)
  | S_vec of string  (** vector container; payload is the element sort name *)

let pp_sort_kind ppf = function
  | S_i64 -> Fmt.string ppf "i64"
  | S_f64 -> Fmt.string ppf "f64"
  | S_string -> Fmt.string ppf "String"
  | S_bool -> Fmt.string ppf "bool"
  | S_unit -> Fmt.string ppf "Unit"
  | S_eq name -> Fmt.string ppf name
  | S_vec elem -> Fmt.pf ppf "(Vec %s)" elem

(* ------------------------------------------------------------------ *)
(* Function tables                                                     *)
(* ------------------------------------------------------------------ *)

(** The storage engine.  The flat arena is the only one; the type is kept
    so that callers written against the old two-engine API, such as
    [perfbench/replica.ml] passing [Interp.create ~engine], still build. *)
type engine = Arena

type func = {
  sym : Symbol.t;
  arg_sorts : sort_kind array;
  ret_sort : sort_kind;
  cost : int option;  (** :cost of this constructor, used by extraction *)
  unextractable : bool;
  merge : (Value.t -> Value.t -> Value.t) option;
      (** how to reconcile two outputs for the same key (primitives only);
          [None] means: error on conflicting primitive outputs *)
  store : Arena.table;
  mutable last_modified : int;
      (** stamp of the last insertion, output change, deletion, or
          canonicalization touching this table, except a congruence merge
          into a row whose output stays — drives the scheduler's
          dirty-table rule skipping and the seminaive terms the matcher
          runs *)
}

let is_constructor f = match f.ret_sort with S_eq _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* The e-graph                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  uf : Union_find.t;
  pool : Arena.pool;  (** value interning for arena codes *)
  funcs : func Symbol.Tbl.t;
  mutable funcs_rev : Symbol.t list;  (** newest declaration first *)
  sorts : (string, sort_kind) Hashtbl.t;
  costs : int Arena.Codes_tbl.t Symbol.Tbl.t;
      (** unstable-cost overrides: per function, canonical key codes -> cost *)
  mutable clock : int;  (** bumped on every mutation; used for fixpoint detection *)
  mutable n_unions : int;
  (* when [immediate_rebuild] is set, every union triggers a full rebuild
     (the "no deferral" ablation from DESIGN.md §5.1) *)
  mutable immediate_rebuild : bool;
  mutable pending_unions : bool;
      (** true iff a union happened since the last {!rebuild}; a clean graph
          makes rebuild O(1) instead of a full table scan *)
  mutable n_rows_cache : int;
      (** exact live row count across all tables, maintained incrementally
          so the {!Limits} gauge's per-iteration [n_nodes] poll is O(1)
          instead of a fold over every table *)
}

let create () =
  let t =
    {
      uf = Union_find.create ();
      pool = Arena.create_pool ();
      funcs = Symbol.Tbl.create 64;
      funcs_rev = [];
      sorts = Hashtbl.create 32;
      costs = Symbol.Tbl.create 16;
      clock = 0;
      n_unions = 0;
      immediate_rebuild = false;
      pending_unions = false;
      n_rows_cache = 0;
    }
  in
  List.iter
    (fun (name, kind) -> Hashtbl.replace t.sorts name kind)
    [
      ("i64", S_i64);
      ("f64", S_f64);
      ("String", S_string);
      ("bool", S_bool);
      ("Unit", S_unit);
    ];
  t

let pool t = t.pool
let uf t = t.uf
let clock t = t.clock
let touched t = t.clock <- t.clock + 1

(** Bump the clock and return it: a timestamp strictly greater than every
    clock value observed before the call.  Rows are stamped with this, so a
    scan that records [clock t] as its horizon sees every later mutation as
    [stamp > horizon]. *)
let next_stamp t =
  t.clock <- t.clock + 1;
  t.clock

(** Look up a declared sort by name. *)
let find_sort t name =
  match Hashtbl.find_opt t.sorts name with
  | Some k -> k
  | None -> error "unknown sort %s" name

let sort_declared t name = Hashtbl.mem t.sorts name

(* Redeclarations follow {!Check}: repeating a declaration is a no-op (a
   rules file may repeat the prelude), declaring a name again as
   something else is an error. *)
let redeclared what name = error "%s %s redeclared with a different definition" what name

(** [declare_sort t name] declares a new equivalence sort. *)
let declare_sort t name =
  match Hashtbl.find_opt t.sorts name with
  | Some (S_eq _) -> ()
  | Some _ -> redeclared "sort" name
  | None ->
    Hashtbl.replace t.sorts name (S_eq name);
    touched t

(** [declare_vec_sort t name elem] declares [(sort name (Vec elem))]. *)
let declare_vec_sort t name elem =
  match Hashtbl.find_opt t.sorts name with
  | Some (S_vec e) when e = elem -> ()
  | Some _ -> redeclared "sort" name
  | None ->
    ignore (find_sort t elem);
    Hashtbl.replace t.sorts name (S_vec elem);
    touched t

(** Extraction sums costs saturating at this cap, so a cost at or above
    it reads as "no finite term"; a base cost that high is rejected as
    [cost-overflow] where it is declared or set. *)
let cost_cap = max_int / 4

(** [declare_function t ~name ~args ~ret ~cost ~merge ~unextractable]
    declares a function table.  [args] and [ret] are sort names. *)
let declare_function t ~name ~args ~ret ~cost ~merge ~unextractable =
  let sym = Symbol.intern name in
  (match cost with
  | Some c when c < 0 -> error "function %s: negative :cost %d" name c
  | Some c when c >= cost_cap ->
    error "cost-overflow: function %s: :cost %d is at or above the extraction cap %d" name
      c cost_cap
  | _ -> ());
  let arg_sorts = Array.of_list (List.map (find_sort t) args) in
  let ret_sort = find_sort t ret in
  match Symbol.Tbl.find_opt t.funcs sym with
  | Some f when f.arg_sorts = arg_sorts && f.ret_sort = ret_sort -> f
  | Some _ -> redeclared "function" name
  | None ->
    let f =
      {
        sym;
        arg_sorts;
        ret_sort;
        cost;
        unextractable;
        merge;
        store = Arena.create ~arity:(Array.length arg_sorts);
        last_modified = 0;
      }
    in
    Symbol.Tbl.replace t.funcs sym f;
    t.funcs_rev <- sym :: t.funcs_rev;
    touched t;
    f

let find_func t sym =
  match Symbol.Tbl.find_opt t.funcs sym with
  | Some f -> f
  | None -> error "unknown function %s" (Symbol.name sym)

let find_func_opt t sym = Symbol.Tbl.find_opt t.funcs sym

(** All declared functions in declaration order. *)
let functions t = List.rev_map (find_func t) t.funcs_rev

(* ------------------------------------------------------------------ *)
(* Sort checking                                                       *)
(* ------------------------------------------------------------------ *)

let rec value_matches_sort t (k : sort_kind) (v : Value.t) =
  match (k, v) with
  | S_i64, I64 _
  | S_f64, F64 _
  | S_string, Str _
  | S_bool, Bool _
  | S_unit, Unit
  | S_eq _, Eclass _ ->
    true
  | S_vec elem, Vec elems ->
    let ek = find_sort t elem in
    Array.for_all (value_matches_sort t ek) elems
  | _ -> false

let check_args t f (args : Value.t array) =
  if Array.length args <> Array.length f.arg_sorts then
    error "%s expects %d arguments, got %d" (Symbol.name f.sym)
      (Array.length f.arg_sorts) (Array.length args);
  Array.iteri
    (fun i v ->
      if not (value_matches_sort t f.arg_sorts.(i) v) then
        error "%s: argument %d has wrong sort (expected %a, got %a)"
          (Symbol.name f.sym) i pp_sort_kind f.arg_sorts.(i) Value.pp v)
    args

(* ------------------------------------------------------------------ *)
(* Core operations                                                     *)
(* ------------------------------------------------------------------ *)

let canon t v = Value.canonicalize t.uf v

(* no-alloc fast path: during search (no pending unions) args are almost
   always already canonical, so the input array can be returned as-is *)
let canon_args t args =
  if Array.for_all (Value.is_canonical t.uf) args then args
  else Array.map (canon t) args
let find_class t id = Union_find.find t.uf id

(** Allocate a fresh, empty e-class. *)
let fresh_class t =
  touched t;
  Union_find.fresh t.uf

(* encode canonical args into arena codes *)
let encode_args t (args : Value.t array) : int array =
  Array.map (fun v -> Arena.encode t.pool v) args

let decode_row_args t (a : Arena.table) ~arity r : Value.t array =
  Array.init arity (fun i -> Arena.decode t.pool (Arena.arg_code a r i))

(** Number of rows (e-nodes) across all tables.  O(1): the count is
    maintained incrementally on insert / delete / congruence merges, since
    the {!Limits} gauge polls it every saturation iteration. *)
let n_nodes t = t.n_rows_cache

(** Recount rows from the tables (consistency checks in tests). *)
let recount_nodes t = Symbol.Tbl.fold (fun _ f acc -> acc + Arena.n_live f.store) t.funcs 0

(** Approximate e-graph footprint in words, for memory budgets: the arena
    tables, the cost overrides, the value pool, and one word per
    union-find class.  A deliberate under-estimate is fine — the budget is
    a guard-rail against runaway growth, not an accountant. *)
let approx_memory_words t =
  let tables = Symbol.Tbl.fold (fun _ f acc -> acc + Arena.memory_words f.store) t.funcs 0 in
  let costs =
    Symbol.Tbl.fold
      (fun _ tbl acc -> acc + (Arena.Codes_tbl.length tbl * 6))
      t.costs 0
  in
  tables + costs + Arena.pool_memory_words t.pool + Union_find.size t.uf

(* ------------------------------------------------------------------ *)
(* Iteration (statistics, printing and the reference implementations)  *)
(* ------------------------------------------------------------------ *)

(** Iterate over all rows of [f] as (canonical args, canonical output).
    When the graph is clean (no unions since the last rebuild) every
    stored row is already canonical, so no per-row canonicalization
    happens. *)
let iter_rows t f (k : Value.t array -> Value.t -> unit) =
  let clean = not t.pending_unions in
  let a = f.store in
  let arity = Array.length f.arg_sorts in
  Arena.iter_live a (fun r ->
      let args = decode_row_args t a ~arity r in
      let out = Arena.decode t.pool (Arena.out_code a r) in
      if clean then k args out else k (canon_args t args) (canon t out))

(** Number of canonical e-classes that appear as some row's output. *)
let n_classes t =
  let seen = Hashtbl.create 64 in
  Symbol.Tbl.iter
    (fun _ f ->
      iter_rows t f (fun _ out ->
          match out with
          | Value.Eclass id -> Hashtbl.replace seen (find_class t id) ()
          | _ -> ()))
    t.funcs;
  Hashtbl.length seen

(* ------------------------------------------------------------------ *)
(* Union + rebuild                                                     *)
(* ------------------------------------------------------------------ *)

(* Two distinct canonical classes become one; congruence waits for the
   next {!rebuild}.  Every union and every merge of two outputs comes
   here. *)
let merge_classes t x y =
  t.n_unions <- t.n_unions + 1;
  touched t;
  t.pending_unions <- true;
  Union_find.union t.uf x y

let merge_outputs t f a b =
  let a = canon t a and b = canon t b in
  if Value.equal a b then a
  else
    match (a, b) with
    | Eclass x, Eclass y -> Value.Eclass (merge_classes t x y)
    | _ -> (
      match f.merge with
      | Some m ->
        let v = m a b in
        if not (Value.equal v a) then touched t;
        v
      | None ->
        error "merge conflict in %s: %a vs %a (no :merge declared)"
          (Symbol.name f.sym) Value.pp a Value.pp b)

(* one re-canonicalization pass over an arena store: stale rows are killed
   and re-appended with canonical codes and fresh stamps; key collisions
   merge outputs (congruence) *)
let rebuild_pass_arena t f =
  let a = f.store in
  let uf = t.uf and pool = t.pool in
  let arity = Array.length f.arg_sorts in
  let stale = ref [] in
  for r = 0 to Arena.n_rows a - 1 do
    if not (Arena.is_dead a r) then begin
      let ok = ref (Arena.code_canonical uf pool (Arena.out_code a r)) in
      let i = ref 0 in
      while !ok && !i < arity do
        if not (Arena.code_canonical uf pool (Arena.arg_code a r !i)) then ok := false;
        incr i
      done;
      if not !ok then stale := r :: !stale
    end
  done;
  List.iter
    (fun r ->
      (* a row in the stale list may have been killed already by an
         earlier collision rewrite in this same pass *)
      if not (Arena.is_dead a r) then begin
        let key' =
          Array.init arity (fun i -> Arena.canon_code uf pool (Arena.arg_code a r i))
        in
        let out' = Arena.canon_code uf pool (Arena.out_code a r) in
        Arena.kill a r;
        match Arena.find a key' with
        | -1 ->
          let stamp = next_stamp t in
          ignore (Arena.append a key' out' stamp);
          f.last_modified <- stamp
        | r2 ->
          (* congruence: two rows collapsed onto the same key.  A survivor
             whose output does not change keeps its row and stamp: it
             cannot complete a match that was not found already. *)
          let merged =
            merge_outputs t f
              (Arena.decode pool (Arena.out_code a r2))
              (Arena.decode pool out')
          in
          let code = Arena.encode pool merged in
          if code <> Arena.out_code a r2 then begin
            let stamp = next_stamp t in
            ignore (Arena.rewrite a r2 code stamp);
            f.last_modified <- stamp
          end;
          t.n_rows_cache <- t.n_rows_cache - 1
      end)
    (List.rev !stale)

(* canonicalize unstable-cost overrides; keep the cheapest on collision.
   Runs once per rebuild, against the final union-find. *)
let rebuild_costs t =
  Symbol.Tbl.iter
    (fun _ tbl ->
      let stale =
        Arena.Codes_tbl.fold
          (fun key c acc ->
            if Array.for_all (Arena.code_canonical t.uf t.pool) key then acc else (key, c) :: acc)
          tbl []
      in
      List.iter (fun (key, _) -> Arena.Codes_tbl.remove tbl key) stale;
      List.iter
        (fun (key, c) ->
          let key' = Array.map (Arena.canon_code t.uf t.pool) key in
          match Arena.Codes_tbl.find_opt tbl key' with
          | Some c' when c' <= c -> ()
          | _ -> Arena.Codes_tbl.replace tbl key' c)
        stale)
    t.costs

(** Restore congruence: re-canonicalize all tables until fixpoint.  O(1)
    when no union happened since the last rebuild (the tables are already
    canonical then — only unions introduce stale keys).  Arena tables are
    compacted afterwards (dead rows dropped in place), so searches only
    ever see dense, live, canonical rows. *)
let rebuild t =
  if t.pending_unions then begin
    let fs =
      Array.of_list (Symbol.Tbl.fold (fun _ f acc -> f :: acc) t.funcs [])
    in
    (* [scanned.(i)] is the union count when table [i]'s last scan
       began.  A scan lists its stale rows up front, so any union made
       since then, by this scan or a later one, can leave the table stale
       again: a table is scanned until no union happened since its last
       scan began. *)
    let scanned = Array.make (Array.length fs) (-1) in
    let passes = ref 0 in
    let stale = ref true in
    while !stale do
      stale := false;
      Array.iteri
        (fun i f ->
          if scanned.(i) <> t.n_unions then begin
            stale := true;
            scanned.(i) <- t.n_unions;
            rebuild_pass_arena t f
          end)
        fs;
      incr passes;
      if !passes > 100_000 then error "rebuild did not converge"
    done;
    rebuild_costs t;
    t.pending_unions <- false
  end;
  Symbol.Tbl.iter (fun _ f -> Arena.compact f.store) t.funcs

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

(* Each write has one implementation, on arena codes: the compiled
   appliers call it directly, and each value-level entry point below is a
   wrapper that checks sorts, canonicalizes and encodes its arguments,
   calls it, and decodes the result. *)

let canon_code t c = Arena.canon_code t.uf t.pool c
let code_matches_sort t k c = value_matches_sort t k (Arena.decode t.pool c)

(* [key]'s codes canonicalized in place *)
let canon_key t (key : int array) =
  for i = 0 to Array.length key - 1 do
    key.(i) <- canon_code t key.(i)
  done

(* the one insert: [key] (copied) must not be live in [f]'s table *)
let insert t f key out =
  let stamp = next_stamp t in
  ignore (Arena.append f.store key out stamp);
  f.last_modified <- stamp;
  t.n_rows_cache <- t.n_rows_cache + 1

(** Table application on codes: [key]'s codes are canonicalized {e in
    place}; a miss inserts a fresh class for a constructor and asserts
    the fact for a relation.  The output code, or [-1] when the function
    has no defined output for [key]. *)
let apply_codes t f (key : int array) : int =
  canon_key t key;
  let r = Arena.find f.store key in
  if r >= 0 then canon_code t (Arena.out_code f.store r)
  else
    let out =
      if is_constructor f then Arena.code_of_class (fresh_class t)
      else if f.ret_sort = S_unit then Arena.encode t.pool Value.Unit
      else -1
    in
    if out >= 0 then insert t f key out;
    out

(** [(set (f key) out)] on codes, [key] canonicalized in place: insert,
    or merge with the row's output (only a conflict decodes, since merge
    functions work on values).  Under the immediate-rebuild ablation,
    congruence is restored before it returns. *)
let set_codes t f (key : int array) (out : int) =
  canon_key t key;
  let out = canon_code t out in
  (match Arena.find f.store key with
  | -1 -> insert t f key out
  | r ->
    let old_code = Arena.out_code f.store r in
    if old_code <> out then begin
      let old_out = Arena.decode t.pool old_code in
      let merged = merge_outputs t f old_out (Arena.decode t.pool out) in
      if not (Value.equal merged old_out) then begin
        let stamp = next_stamp t in
        ignore (Arena.rewrite f.store r (Arena.encode t.pool merged) stamp);
        f.last_modified <- stamp
      end
    end);
  if t.immediate_rebuild then rebuild t

(** Union of two codes: two classes merge (congruence deferred to the
    next {!rebuild}, unless the immediate-rebuild ablation flag is on);
    anything else must already be equal. *)
let union_codes t a b =
  let a = canon_code t a and b = canon_code t b in
  if a <> b then
    if Arena.is_class_code a && Arena.is_class_code b then begin
      ignore (merge_classes t (Arena.class_of_code a) (Arena.class_of_code b));
      if t.immediate_rebuild then rebuild t
    end
    else
      error "cannot union distinct primitive values %a and %a" Value.pp
        (Arena.decode t.pool a) Value.pp (Arena.decode t.pool b)

(** Remove the row with key [key] (canonicalized in place), if present. *)
let delete_codes t f (key : int array) =
  canon_key t key;
  if Arena.remove f.store key then begin
    f.last_modified <- next_stamp t;
    t.n_rows_cache <- t.n_rows_cache - 1
  end

(* extraction's cost fixpoint terminates only on costs >= 0; a negative
   override (e.g. an i64 product that overflowed in a cost rule) would
   make it spin, and one at the cap would read as "no finite term" *)
let check_cost f cost =
  if cost < 0 then
    error "unstable-cost: negative cost %d for (%s ...)" cost (Symbol.name f.sym)
  else if cost >= cost_cap then
    error "cost-overflow: the unstable-cost %d of (%s ...) is at or above the extraction cap %d"
      cost (Symbol.name f.sym) cost_cap

(** Record [cost] as the extraction cost of the e-node of [f] whose
    canonical key codes are [key] (a live row), unless a cost no higher
    is recorded already; [key] is copied only when a cost is recorded. *)
let set_cost_codes t f (key : int array) cost =
  check_cost f cost;
  let tbl =
    match Symbol.Tbl.find_opt t.costs f.sym with
    | Some tbl -> tbl
    | None ->
      let tbl = Arena.Codes_tbl.create 8 in
      Symbol.Tbl.replace t.costs f.sym tbl;
      tbl
  in
  match Arena.Codes_tbl.find_opt tbl key with
  | Some c when c <= cost -> ()
  | _ ->
    Arena.Codes_tbl.replace tbl (Array.copy key) cost;
    touched t

(** The cost override of the e-node of [f] with canonical key codes
    [key], if any. *)
let cost_override_codes t f (key : int array) =
  match Symbol.Tbl.find_opt t.costs f.sym with
  | None -> None
  | Some tbl -> Arena.Codes_tbl.find_opt tbl key

(* ------------------------------------------------------------------ *)
(* Value-level wrappers                                                *)
(* ------------------------------------------------------------------ *)

(* canonical codes of [args], interned in order *)
let key_of t args = encode_args t (canon_args t args)

(** [lookup t f args] finds the output for [args] if the row exists. *)
let lookup t f args =
  let r = Arena.find f.store (key_of t args) in
  if r < 0 then None else Some (canon t (Arena.decode t.pool (Arena.out_code f.store r)))

(** Constructor/table application: look up [args]; on a miss, constructors
    allocate a fresh e-class and insert the row.  Non-constructor misses
    return [None] (the caller decides whether that is an error). *)
let apply t f args =
  check_args t f args;
  match apply_codes t f (key_of t args) with -1 -> None | c -> Some (Arena.decode t.pool c)

(** [set t f args out] inserts or merges a row ([(set (f args) out)]). *)
let set t f args out =
  check_args t f args;
  if not (value_matches_sort t f.ret_sort out) then
    error "%s: output has wrong sort (expected %a, got %a)" (Symbol.name f.sym)
      pp_sort_kind f.ret_sort Value.pp out;
  let key = key_of t args in
  set_codes t f key (Arena.encode t.pool (canon t out))

(** [union t a b] asserts that classes [a] and [b] are equal. *)
let union t a b = union_codes t (Arena.code_of_class a) (Arena.code_of_class b)

(** [union_values t a b] unions two values; both must be e-class refs, or
    equal primitives. *)
let union_values t a b =
  let a = Arena.encode t.pool (canon t a) in
  union_codes t a (Arena.encode t.pool (canon t b))

(** [delete t f args] removes a row if present. *)
let delete t f args = delete_codes t f (key_of t args)

(** [set_cost t f args cost] overrides the extraction cost of the e-node
    [(f args)] — the paper's [unstable-cost] command.  The node must exist. *)
let set_cost t f args cost =
  (* a bad cost is reported before a missing node *)
  check_cost f cost;
  let key = key_of t args in
  if Arena.find f.store key < 0 then
    error "unstable-cost: e-node (%s ...) not present" (Symbol.name f.sym);
  set_cost_codes t f key cost

(** Cost override for node [(f args)], if any. *)
let cost_override t f args = cost_override_codes t f (key_of t args)

(* ------------------------------------------------------------------ *)
(* Snapshots (push/pop)                                                *)
(* ------------------------------------------------------------------ *)

(** Deep copy of the whole e-graph: tables, union-find, value pool, cost
    overrides.  Used by the interpreter's [push] and {!Interp.fork}.
    Arena tables copy flat int arrays.  The copy's codes are the
    original's, and what either side interns later stays its own.  The
    function and cost tables are copied bucket for bucket, not refilled:
    {!rebuild} and compaction walk [funcs] in hash order, and a copy must
    walk it in the order the original (and a fresh replay of the same
    declarations) does.  [funcs_rev] stays physically shared until the
    copy's next declaration. *)
let copy t : t =
  let funcs = Symbol.Tbl.copy t.funcs in
  Symbol.Tbl.filter_map_inplace (fun _ f -> Some { f with store = Arena.copy f.store }) funcs;
  let costs = Symbol.Tbl.copy t.costs in
  Symbol.Tbl.filter_map_inplace (fun _ tbl -> Some (Arena.Codes_tbl.copy tbl)) costs;
  {
    uf = Union_find.copy t.uf;
    pool = Arena.copy_pool t.pool;
    funcs;
    funcs_rev = t.funcs_rev;
    sorts = Hashtbl.copy t.sorts;
    costs;
    clock = t.clock;
    n_unions = t.n_unions;
    immediate_rebuild = t.immediate_rebuild;
    pending_unions = t.pending_unions;
    n_rows_cache = t.n_rows_cache;
  }

let pp_stats ppf t =
  Fmt.pf ppf "e-graph: %d nodes, %d classes, %d unions" (n_nodes t) (n_classes t)
    t.n_unions
