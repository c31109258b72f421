(** E-matching: finding all substitutions under which a rule's premises hold
    in the current e-graph.

    There is one matcher, a nested-loop join.  A rule's premises are
    compiled against the e-graph in one pass ({!gcompile}) into flat table
    atoms — every column a variable, a literal, a global, or a wildcard,
    nested table applications hoisted into atoms of their own — plus
    {e residual} facts that only involve primitives.  Each seminaive term
    (one per atom: that atom's rows newer than a given stamp, joined with
    the others) gets an atom order when the plan compiles: the delta atom
    first, then every atom whose arguments are all bound (one lookup in
    the table's own key hash), then atoms probed through a
    per-(function, column) index on a bound column, the output column
    first, then full scans.
    {!gsolve_packed} walks that order with one binding array into rows of
    arena codes; the caller's compiled residuals then filter each row and
    fill the slots they bind.

    Variable conventions: [?x] is always a pattern variable; a bare name is
    a global when the caller pins it (the interpreter pins the bare names
    that were globals when the rule was registered), and is otherwise a
    pattern variable (Egglog "new syntax"). *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Persistent index                                                    *)
(* ------------------------------------------------------------------ *)

(* Growable ascending row-id vector: one column-index bucket.  Kept as
   (buffer, length) so appending new rows between iterations never copies
   what is already there. *)
type ivec = { mutable iv_buf : int array; mutable iv_len : int }

(* open-addressed int -> ivec map for the column-index buckets (ops are
   defined with the join below) *)
type imap = {
  mutable im_keys : int array;  (* -1 = empty *)
  mutable im_vals : ivec array;
  mutable im_count : int;
  mutable im_mask : int;
}

(* Per-function column index over an arena table: for every column
   (arguments and output), a hashtable from code to the ascending vector of
   row indices holding that code.  Feeds the join's column probes.  Rows appended
   since the last build are added incrementally; the index is rebuilt from
   scratch only when the table's row numbering changed ({!Arena.compact})
   or rows died without a compaction yet. *)
type cimap_col = {
  mutable cm_version : int;  (* Arena.version when this column was built *)
  mutable cm_rows : int;  (* Arena.n_rows already indexed *)
  mutable cm_dead : int;  (* Arena.n_dead at the last sync *)
  mutable cm_im : imap;
}

type colindex = {
  ci_cols : cimap_col array;
}

type index = {
  eg : Egraph.t;
  globals : (string, Value.t) Hashtbl.t;
  colindexes : colindex Symbol.Tbl.t;
}

(** Build a matching index over [eg].  [globals] are the interpreter's
    top-level let-bindings.  The index is cheap to create and {e persistent}:
    column indexes are built lazily on first probe and kept up to date
    incrementally across saturation iterations.  Matching requires the
    e-graph to be rebuilt (congruence restored). *)
let make_index eg globals : index = { eg; globals; colindexes = Symbol.Tbl.create 64 }

let is_pattern_var name = String.length name > 0 && name.[0] = '?'

let value_of_lit : Ast.lit -> Value.t = function
  | L_i64 n -> I64 n
  | L_f64 f -> F64 f
  | L_string s -> Str s
  | L_bool b -> Bool b
  | L_unit -> Unit

(** Compiler-made variable?  Every name {!gcompile} makes starts [?__sn]. *)
let is_aux_var x = String.starts_with ~prefix:"?__sn" x

(* ------------------------------------------------------------------ *)
(* Column indexes                                                      *)
(* ------------------------------------------------------------------ *)

let iv_push v x =
  (if v.iv_len = Array.length v.iv_buf then begin
     let nb = Array.make (max 8 (2 * v.iv_len)) 0 in
     Array.blit v.iv_buf 0 nb 0 v.iv_len;
     v.iv_buf <- nb
   end);
  v.iv_buf.(v.iv_len) <- x;
  v.iv_len <- v.iv_len + 1

(* Open-addressed int -> ivec map for the column-index buckets.  These sit
   on the search's probe path, and [Hashtbl.find_opt] boxes an option per
   hit; linear probing over flat int keys does not allocate at all.  Keys
   are arena codes, always >= 0, so [-1] marks an empty slot.  No
   deletion. *)
let im_no_rows : ivec = { iv_buf = [||]; iv_len = 0 }

let im_create () =
  {
    im_keys = Array.make 16 (-1);
    im_vals = Array.make 16 im_no_rows;
    im_count = 0;
    im_mask = 15;
  }

let im_hash k mask = (k * 0x9E3779B1) lsr 4 land mask

(** The bucket for code [k], or the shared empty ivec. *)
let im_find m k : ivec =
  let keys = m.im_keys and mask = m.im_mask in
  let i = ref (im_hash k mask) in
  let ki = ref (Array.unsafe_get keys !i) in
  while !ki <> -1 && !ki <> k do
    i := (!i + 1) land mask;
    ki := Array.unsafe_get keys !i
  done;
  if !ki = k then Array.unsafe_get m.im_vals !i else im_no_rows

let im_grow m =
  let okeys = m.im_keys and ovals = m.im_vals in
  let cap = 2 * Array.length okeys in
  let mask = cap - 1 in
  let keys = Array.make cap (-1) and vals = Array.make cap im_no_rows in
  Array.iteri
    (fun o k ->
      if k <> -1 then begin
        let i = ref (im_hash k mask) in
        while keys.(!i) <> -1 do
          i := (!i + 1) land mask
        done;
        keys.(!i) <- k;
        vals.(!i) <- ovals.(o)
      end)
    okeys;
  m.im_keys <- keys;
  m.im_vals <- vals;
  m.im_mask <- mask

(** The bucket for code [k], created empty if absent. *)
let im_get_add m k : ivec =
  let keys = m.im_keys and mask = m.im_mask in
  let i = ref (im_hash k mask) in
  while keys.(!i) <> -1 && keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = k then m.im_vals.(!i)
  else begin
    let v = { iv_buf = Array.make 4 0; iv_len = 0 } in
    keys.(!i) <- k;
    m.im_vals.(!i) <- v;
    m.im_count <- m.im_count + 1;
    if 4 * m.im_count > 3 * (mask + 1) then im_grow m;
    v
  end

let im_iter_vals f m =
  Array.iteri (fun i k -> if k <> -1 then f m.im_vals.(i)) m.im_keys

(* Bring one column of an index up to date with table [a], mutating the
   record in place — callers may hold direct references to it (the
   per-plan scratch caches one colindex per atom), so it is never
   replaced wholesale.  Sync is per {e column} and lazy: a rule only
   pays for the columns its join actually probes.  Appends the rows added
   since the last sync; rebuilds from scratch only when the table's row
   numbering changed ({!Arena.compact} bumped the version) or rows died
   without a compaction (never the case during a search, which always
   runs on a freshly rebuilt graph). *)
let cm_sync (cm : cimap_col) (a : Arena.table) (col : int) : unit =
  let n = Arena.n_rows a in
  let index_rows lo hi =
    for r = lo to hi - 1 do
      if not (Arena.is_dead a r) then
        iv_push (im_get_add cm.cm_im (Arena.col_code a r col)) r
    done;
    cm.cm_rows <- hi
  in
  if
    cm.cm_version = Arena.version a
    && cm.cm_dead = Arena.n_dead a
    && cm.cm_rows <= n
  then begin
    (* no compaction and no new deaths since the last sync: the indexed
       prefix is still valid, only append the new rows *)
    if cm.cm_rows < n then index_rows cm.cm_rows n
  end
  else begin
    let remapped =
      (* the table compacted since the column was built: renumber every
         bucket in place (order-preserving, no hashing) and then append
         the rows added after the compaction *)
      Arena.n_dead a = 0
      &&
      match Arena.remap_from a ~from_version:cm.cm_version with
      | Some remap when cm.cm_rows <= Array.length remap ->
        im_iter_vals
          (fun v ->
            let j = ref 0 in
            for i = 0 to v.iv_len - 1 do
              let nr = remap.(v.iv_buf.(i)) in
              if nr >= 0 then begin
                v.iv_buf.(!j) <- nr;
                incr j
              end
            done;
            v.iv_len <- !j)
          cm.cm_im;
        cm.cm_version <- Arena.version a;
        cm.cm_dead <- 0;
        (* order preservation means the indexed prefix [0, cm_rows) of the
           old numbering maps onto the prefix [0, live) of the new one;
           everything after is unindexed old rows and post-compaction
           appends *)
        let live = ref 0 in
        for r = 0 to cm.cm_rows - 1 do
          if remap.(r) >= 0 then incr live
        done;
        cm.cm_rows <- live.contents;
        if cm.cm_rows < n then index_rows cm.cm_rows n;
        true
      | _ -> false
    in
    if not remapped then begin
      cm.cm_version <- Arena.version a;
      cm.cm_dead <- Arena.n_dead a;
      cm.cm_rows <- 0;
      cm.cm_im <- im_create ();
      index_rows 0 n
    end
  end

(* true when the column can be probed without first syncing it *)
let cm_fresh (cm : cimap_col) (a : Arena.table) =
  cm.cm_version = Arena.version a
  && cm.cm_dead = Arena.n_dead a
  && cm.cm_rows = Arena.n_rows a

let colindex_of idx (f : Egraph.func) (a : Arena.table) : colindex =
  match Symbol.Tbl.find_opt idx.colindexes f.sym with
  | Some c -> c
  | None ->
    let width = Array.length f.Egraph.arg_sorts + 1 in
    let c =
      {
        ci_cols =
          Array.init width (fun _ ->
              {
                cm_version = Arena.version a - 1;
                cm_rows = 0;
                cm_dead = 0;
                cm_im = im_create ();
              });
      }
    in
    Symbol.Tbl.replace idx.colindexes f.sym c;
    c

(* first index in ascending a[lo,hi) with a.(i) >= x *)
let bsearch_ge (a : int array) lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get a mid >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Compiled join plans                                                 *)
(* ------------------------------------------------------------------ *)

(** One column of a flat atom: a join variable, a pinned literal code, a
    global (pinned to its canonical code afresh at every search, since the
    global's class can merge mid-run), or unconstrained (wildcard /
    don't-care output). *)
type gslot = G_var of int | G_lit of int | G_global of int | G_free

(** A flat table atom [(f c₀ … cₙ₋₁) ↦ cₙ]: every column is a variable,
    literal, global, or wildcard — no nested patterns ({!gcompile}
    hoists those into atoms and residuals of their own). *)
type gatom = { g_sym : Symbol.t; g_slots : gslot array }

(* Which of a step's rows the search follows.  A search returns one match
   per distinct assignment of the join variables (those with two or more
   occurrences), times the rows of each atom that binds a variable the
   consumer reads and no other atom mentions. *)
type mode =
  | Each
      (* every row: the atom binds such a variable, or its rows differ in
         the join variables they bind *)
  | First  (* the first row: the atom binds no join variable, it only has to hold *)
  | Distinct
      (* the first row of each tuple of join variables it binds: a free
         argument column lets rows repeat them *)

(* How a step finds its rows: one {!Arena.find} on the key, the bucket of
   one column's index, or a scan. *)
type probe = Key | Col of int | Scan

(* One atom's place in a term's order.  The search binds into one array,
   the env: the variables, then the literal codes ([gp_consts]), then the
   globals' canonical codes. *)
type step = {
  st_atom : int;
  st_probe : probe;
  st_src : int array;
      (* env slots of the probed columns: each argument's for [Key], the
         column's alone for [Col] *)
  st_bind : int array;  (* (column, var) pairs, flattened: what the row binds *)
  st_check : int array;  (* (column, env slot) pairs, flattened: what the row must equal *)
  st_mode : mode;
}

(* The rows one visit of a [Distinct] step has followed, by the codes of
   the columns it binds: open addressing over row ids, each slot valid
   only in the generation that wrote it, so a new visit clears nothing. *)
type seen = {
  mutable sn_rows : int array;
  mutable sn_gens : int array;
  mutable sn_gen : int;
  mutable sn_count : int;
}

(** A rule body compiled for the join: flat atoms, one atom order per
    seminaive term, then pure-primitive residual facts run by the caller
    on each packed row. *)
type gplan = {
  gp_atoms : gatom array;
  gp_terms : step array Lazy.t array;  (* per delta atom: its term's order *)
  gp_consts : int array;  (* the literal codes' env slots follow the variables' *)
  gp_residuals : Ast.fact list;  (* in the order they run *)
  gp_res_vars : string array;
      (* variables the residuals mention that no atom binds: one packed-row
         slot each, after the join's, for the residuals to fill *)
  gp_var_names : string array;
  gp_globals : string array;
      (* every global the premises name (pinned columns index into it);
         {!pins} reads their canonical codes *)
  gp_may_dup : bool;
      (* some atom has a wildcard argument column, so distinct witnessing
         rows can yield the same emitted codes and results need
         deduplication (a free output column cannot: rows are unique by
         key) *)
  gp_aux_emitted : bool;
      (* some emitted variable is a compiler aux var (a residual reads it,
         or the consumer asked for everything) *)
  gp_emit : int array;
      (* var ids the join emits into packed rows: only what the rule's
         residuals and actions read (all vars when the consumer is unknown) *)
  mutable gp_scratch : scratch option;
      (* per-instance working state reused across searches; rebuilt when
         the e-graph it was built against is swapped out *)
}

and scratch = {
  sc_eg : Egraph.t;  (* validity token: compare with the index's graph *)
  sc_funcs : Egraph.func array;
  sc_tables : Arena.table array;
  sc_cidxs : colindex array;
  sc_env : int array;
  sc_lo : int array;  (* per atom: the current term's row range [lo, hi) *)
  sc_hi : int array;
  sc_keys : int array array;  (* per atom: key buffer for [Key] *)
  sc_seen : seen array;  (* per atom, for a [Distinct] step; made at its first visit *)
  mutable sc_rows : int array;  (* the join's matches: emitted codes, row-major *)
  mutable sc_n : int;
  mutable sc_packed : int array;  (* rows the residuals kept *)
}

(* [l] without its first element physically equal to [x] *)
let rec remove_first x = function
  | [] -> []
  | y :: l -> if y == x then l else y :: remove_first x l

(* the first index of [a] whose element passes [p], or -1 *)
let find_index p a =
  let rec go i = if i = Array.length a then -1 else if p a.(i) then i else go (i + 1) in
  go 0

(* Each term's atom order, a function of the plan alone: the delta atom,
   then every atom whose arguments are all bound, then atoms with a bound
   output column, then with any bound column, then the rest, each time
   the lowest atom index first.  A term's order is made when the term
   first searches, once for the plan and every instance of it. *)
let join_orders atoms ~n_vars ~(emitted : bool array) ~(env_slot : gslot -> int) :
    step array Lazy.t array =
  let n_atoms = Array.length atoms in
  let occ = Array.make n_vars 0 in
  Array.iter
    (fun ga -> Array.iter (function G_var v -> occ.(v) <- occ.(v) + 1 | _ -> ()) ga.g_slots)
    atoms;
  let bound = Array.make n_vars false and placed = Array.make n_atoms false in
  let known = function G_var v -> bound.(v) | G_lit _ | G_global _ -> true | G_free -> false in
  (* how atom [a]'s rows would be found now, ranked: by its key (0), by
     its output column (1), by another bound column (2), by a scan (3) *)
  let access a =
    let s = atoms.(a).g_slots in
    let n = Array.length s - 1 in
    let n_known = ref 0 and first = ref (-1) in
    for c = n - 1 downto 0 do
      if known s.(c) then begin
        incr n_known;
        first := c
      end
    done;
    if !n_known = n then (0, Key)
    else if known s.(n) then (1, Col n)
    else if !first >= 0 then (2, Col !first)
    else (3, Scan)
  in
  let step a probe =
    placed.(a) <- true;
    let slots = atoms.(a).g_slots in
    let n = Array.length slots - 1 in
    let probed c = match probe with Key -> c < n | Col c' -> c = c' | Scan -> false in
    let binds = ref [] and checks = ref [] in
    let reads = ref false and joins = ref false and free_arg = ref false in
    Array.iteri
      (fun c s ->
        match s with
        | G_var v when not bound.(v) ->
          if occ.(v) >= 2 || emitted.(v) then begin
            bound.(v) <- true;
            binds := v :: c :: !binds;
            if occ.(v) >= 2 then joins := true else reads := true
          end
          else if c < n then free_arg := true
        | G_free -> if c < n then free_arg := true
        | G_var _ | G_lit _ | G_global _ ->
          if not (probed c) then checks := env_slot s :: c :: !checks)
      slots;
    {
      st_atom = a;
      st_probe = probe;
      st_src =
        (match probe with
        | Key -> Array.init n (fun c -> env_slot slots.(c))
        | Col c -> [| env_slot slots.(c) |]
        | Scan -> [||]);
      st_bind = Array.of_list (List.rev !binds);
      st_check = Array.of_list (List.rev !checks);
      st_mode =
        (if !reads then Each
         else if not !joins then First
         else if !free_arg then Distinct
         else Each);
    }
  in
  let term t =
    Array.fill bound 0 n_vars false;
    Array.fill placed 0 n_atoms false;
    let first = step t (snd (access t)) in
    let rest = ref [] in
    for _ = 2 to n_atoms do
      let best = ref (-1) and best_rank = ref 4 and best_probe = ref Scan in
      for a = 0 to n_atoms - 1 do
        if (not placed.(a)) && !best_rank > 0 then begin
          let rank, probe = access a in
          if rank < !best_rank then begin
            best := a;
            best_rank := rank;
            best_probe := probe
          end
        end
      done;
      rest := step !best !best_probe :: !rest
    done;
    Array.of_list (first :: List.rev !rest)
  in
  Array.init n_atoms (fun t -> lazy (term t))

(** Compile a premise list for the join.  Every premise shape compiles:
    - a table application is an atom whose columns hold variables,
      literals, globals or wildcards;
    - a table application nested in another one's column is an atom of
      its own on a fresh output variable.  When every variable in it
      occurs in an earlier premise it is {e ground}: its atom goes before
      its parent's, innermost first, and every syntactically equal ground
      application shares it (lookups by key).  Any other nested
      application goes after its parent, each parent before its own
      children, siblings left to right (probes of the output column);
    - a primitive call or [vec-of] in a column is hoisted into a residual
      [(= ?aux e)] on a fresh variable;
    - a table application inside a primitive call is hoisted into an atom
      on a fresh output variable, before the atom it sits in;
    - an equality over several table applications becomes one atom each,
      all sharing one output column;
    - a fact with no table application is a residual, run after the join
      once what it evaluates is bound.
    [pinned] are the bare names that denote globals; [keep] names the
    variables the consumer reads (default: all).  Raises {!Error} on an
    unknown function or an arity mismatch. *)
let gcompile ?(keep : string list option) ~(pinned : string list) idx (facts : Ast.fact list) :
    gplan =
  let pool = Egraph.pool idx.eg in
  let vars : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let var_names = ref [] in
  let n_vars = ref 0 in
  let var_id x =
    match Hashtbl.find_opt vars x with
    | Some v -> v
    | None ->
      let v = !n_vars in
      Hashtbl.add vars x v;
      var_names := x :: !var_names;
      incr n_vars;
      v
  in
  let exprs_of = function Ast.F_expr e -> [ e ] | Ast.F_eq es -> es in
  let is_table f = not (Primitives.is_primitive f) in
  (* every global the premises name, numbered in order of appearance *)
  let globals : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let global_names = ref [] in
  let rec scan_globals (e : Ast.expr) =
    match e with
    | Ast.Var x when List.mem x pinned && not (Hashtbl.mem globals x) ->
      Hashtbl.add globals x (Hashtbl.length globals);
      global_names := x :: !global_names
    | Ast.Call (_, args) -> List.iter scan_globals args
    | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> ()
  in
  List.iter (fun f -> List.iter scan_globals (exprs_of f)) facts;
  let n_aux = ref 0 in
  let fresh_aux () =
    incr n_aux;
    "?__sn" ^ string_of_int !n_aux
  in
  let atoms = ref [] and residuals = ref [] in
  let is_table_call = function Ast.Call (f, _) -> is_table f | _ -> false in
  let rec has_table_call (e : Ast.expr) =
    match e with
    | Ast.Call (f, args) -> is_table f || List.exists has_table_call args
    | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> false
  in
  (* the variables of the premises before the current one, and the ground
     applications hoisted so far, by syntax, with their output variables *)
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let ground : (Ast.expr, string) Hashtbl.t = Hashtbl.create 8 in
  let rec add_vars (e : Ast.expr) =
    match e with
    | Ast.Var x -> Hashtbl.replace bound x ()
    | Ast.Call (_, args) -> List.iter add_vars args
    | Ast.Wildcard | Ast.Lit _ -> ()
  in
  let rec is_ground (e : Ast.expr) =
    match e with
    | Ast.Var x -> Hashtbl.mem bound x
    | Ast.Wildcard -> false
    | Ast.Lit _ -> true
    | Ast.Call (_, args) -> List.for_all is_ground args
  in
  (* the column slot for [e], hoisting what a column cannot hold.  In a
     pattern ([later] given) a nested table application is a ground one's
     output variable, or a fresh variable whose atom [later] places after
     the parent's; under a primitive its atom comes first. *)
  let rec slot_of later (e : Ast.expr) : gslot =
    match e with
    | Ast.Wildcard -> G_free
    | Ast.Lit l -> G_lit (Arena.encode pool (value_of_lit l))
    | Ast.Var x -> (
      match Hashtbl.find_opt globals x with
      | Some g -> G_global g
      | None -> G_var (var_id x))
    | Ast.Call (f, args) when is_table f -> (
      match later with
      | None ->
        let out = G_var (var_id (fresh_aux ())) in
        add_atom None f args out;
        out
      | Some later -> (
        match Hashtbl.find_opt ground e with
        | Some aux -> G_var (var_id aux)
        | None ->
          let aux = fresh_aux () in
          later := (aux, f, args) :: !later;
          G_var (var_id aux)))
    | Ast.Call _ ->
      let aux = fresh_aux () in
      let out = G_var (var_id aux) in
      residuals := Ast.F_eq [ Ast.Var aux; hoist e ] :: !residuals;
      out
  and add_atom later f args (out : gslot) =
    let fn =
      match Egraph.find_func_opt idx.eg (Symbol.intern f) with
      | Some fn -> fn
      | None -> error "unknown function %s in pattern" f
    in
    let arity = Array.length fn.Egraph.arg_sorts in
    if List.length args <> arity then
      error "%s expects %d arguments in a pattern, got %d" f arity (List.length args);
    let slots = Array.make (arity + 1) G_free in
    List.iteri (fun i a -> slots.(i) <- slot_of later a) args;
    slots.(arity) <- out;
    atoms := { g_sym = fn.Egraph.sym; g_slots = slots } :: !atoms
  (* an evaluated expression: its table applications become atoms *)
  and hoist (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (f, args) when is_table f ->
      let aux = fresh_aux () in
      add_atom None f args (G_var (var_id aux));
      Ast.Var aux
    | Ast.Call (f, args) -> Ast.Call (f, List.map hoist args)
    | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> e
  in
  (* a ground application's atom, after those of the applications nested
     in it; once per syntax *)
  let rec hoist_ground (e : Ast.expr) =
    match e with
    | Ast.Call (f, args) when is_table f && not (Hashtbl.mem ground e) ->
      List.iter hoist_ground args;
      let aux = fresh_aux () in
      add_atom (Some (ref [])) f args (G_var (var_id aux));
      Hashtbl.add ground e aux
    | _ -> ()
  in
  (* the ground applications nested in a pattern, in the order it lists
     them *)
  let rec hoist_nested (e : Ast.expr) =
    match e with
    | Ast.Call (f, args) when is_table f ->
      List.iter
        (fun a -> if is_table_call a then if is_ground a then hoist_ground a else hoist_nested a)
        args
    | _ -> ()
  in
  (* the atoms [later] collected, in reverse: each after its parent, a
     parent before its own children *)
  let rec place later =
    List.iter
      (fun (aux, f, args) ->
        let kids = ref [] in
        add_atom (Some kids) f args (G_var (var_id aux));
        place !kids)
      (List.rev later)
  in
  List.iter
    (fun (fact : Ast.fact) ->
      let es = exprs_of fact in
      List.iter hoist_nested es;
      let later = ref [] in
      (if not (List.exists has_table_call es) then residuals := fact :: !residuals
       else
         match fact with
         | Ast.F_expr (Ast.Call (f, args)) when is_table f ->
           (* bare table application: a bool-returning table is a guard
              (output pinned to true); anything else is unconstrained *)
           let out =
             match Egraph.find_func_opt idx.eg (Symbol.intern f) with
             | Some fn when fn.Egraph.ret_sort = Egraph.S_bool ->
               G_lit (Arena.encode pool (Value.Bool true))
             | _ -> G_free
           in
           add_atom (Some later) f args out
         | Ast.F_expr e -> residuals := Ast.F_expr (hoist e) :: !residuals
         | Ast.F_eq es when not (List.exists is_table_call es) ->
           (* table applications only under primitives: no shared output
              column, the whole equality is a residual over their values *)
           residuals := Ast.F_eq (List.map hoist es) :: !residuals
         | Ast.F_eq es ->
           let calls, others = List.partition is_table_call es in
           (* one output column shared by every application: the first
              variable or literal conjunct, else nothing for a lone
              application among wildcards, else a fresh variable; every
              other conjunct must equal it *)
           let binder, out, rest =
             match
               List.find_opt (function Ast.Var _ | Ast.Lit _ -> true | _ -> false) others
             with
             | Some b ->
               let out = slot_of None b in
               (Some b, out, remove_first b others)
             | None when List.length calls = 1 && List.for_all (( = ) Ast.Wildcard) others ->
               (None, G_free, [])
             | None ->
               let b = Ast.Var (fresh_aux ()) in
               let out = slot_of None b in
               (Some b, out, others)
           in
           List.iter
             (function Ast.Call (f, args) -> add_atom (Some later) f args out | _ -> ())
             calls;
           List.iter
             (fun e ->
               match (e, binder) with
               | Ast.Wildcard, _ | _, None -> ()
               | e, Some b -> residuals := Ast.F_eq [ b; hoist e ] :: !residuals)
             rest);
      place !later;
      List.iter add_vars es)
    facts;
  let gp_atoms = Array.of_list (List.rev !atoms) in
  let gp_var_names = Array.of_list (List.rev !var_names) in
  let gp_globals = Array.of_list (List.rev !global_names) in
  let vars_in e =
    let acc = ref [] in
    let rec go = function
      | Ast.Var x -> acc := x :: !acc
      | Ast.Call (_, args) -> List.iter go args
      | Ast.Wildcard | Ast.Lit _ -> ()
    in
    go e;
    !acc
  in
  (* residuals run after the join, each once what it evaluates is bound
     (by the atoms or by an earlier residual): one that binds variables,
     such as [(= ?x e)] or a [vec-of] destructuring, runs before those
     that read them; otherwise premise order *)
  let gp_residuals =
    let bound = Hashtbl.create 16 in
    let bind f = List.iter (fun e -> List.iter (fun x -> Hashtbl.replace bound x ()) (vars_in e)) (exprs_of f) in
    Array.iter (fun x -> Hashtbl.replace bound x ()) gp_var_names;
    let rec evaluable (e : Ast.expr) =
      match e with
      | Ast.Var x -> Hashtbl.mem bound x || Hashtbl.mem globals x
      | Ast.Lit _ -> true
      | Ast.Wildcard -> false
      | Ast.Call (_, args) -> List.for_all evaluable args
    in
    (* matched against a known value, [e] can bind what it lacks *)
    let rec bindable (e : Ast.expr) =
      match e with
      | Ast.Var _ | Ast.Wildcard -> true
      | Ast.Call ("vec-of", args) -> List.for_all bindable args
      | Ast.Lit _ | Ast.Call _ -> evaluable e
    in
    let ready = function
      | Ast.F_expr e -> evaluable e
      | Ast.F_eq es -> List.exists evaluable es && List.for_all bindable es
    in
    let rec order acc = function
      | [] -> List.rev acc
      | pending ->
        let next = Option.value (List.find_opt ready pending) ~default:(List.hd pending) in
        bind next;
        order (next :: acc) (remove_first next pending)
    in
    order [] (List.rev !residuals)
  in
  let gp_emit =
    match keep with
    | None -> Array.init (Array.length gp_var_names) Fun.id
    | Some keep ->
      let needed = Hashtbl.create 16 in
      List.iter (fun x -> Hashtbl.replace needed x ()) keep;
      List.iter
        (fun f ->
          List.iter
            (fun e -> List.iter (fun x -> Hashtbl.replace needed x ()) (vars_in e))
            (exprs_of f))
        gp_residuals;
      let out = ref [] in
      Array.iteri
        (fun i x -> if Hashtbl.mem needed x then out := i :: !out)
        gp_var_names;
      Array.of_list (List.rev !out)
  in
  let gp_res_vars =
    let acc = ref [] in
    List.iter
      (fun f ->
        List.iter
          (fun e ->
            List.iter
              (fun x ->
                if not (Hashtbl.mem vars x || Hashtbl.mem globals x || List.mem x !acc) then
                  acc := x :: !acc)
              (List.rev (vars_in e)))
          (exprs_of f))
      gp_residuals;
    Array.of_list (List.rev !acc)
  in
  let n_vars = Array.length gp_var_names in
  let gp_consts =
    let acc = ref [] in
    Array.iter
      (fun ga ->
        Array.iter
          (function
            | G_lit code when not (List.exists (Int.equal code) !acc) -> acc := code :: !acc
            | _ -> ())
          ga.g_slots)
      gp_atoms;
    Array.of_list (List.rev !acc)
  in
  let env_slot = function
    | G_var v -> v
    | G_lit code -> n_vars + find_index (Int.equal code) gp_consts
    | G_global g -> n_vars + Array.length gp_consts + g
    | G_free -> invalid_arg "Matcher.env_slot"
  in
  let emitted = Array.make n_vars false in
  Array.iter (fun v -> emitted.(v) <- true) gp_emit;
  {
    gp_atoms;
    gp_terms = join_orders gp_atoms ~n_vars ~emitted ~env_slot;
    gp_consts;
    gp_residuals;
    gp_res_vars;
    gp_var_names;
    gp_globals;
    gp_may_dup =
      Array.exists
        (fun ga ->
          let s = ga.g_slots in
          let rec free c = c < Array.length s - 1 && (s.(c) = G_free || free (c + 1)) in
          free 0)
        gp_atoms;
    gp_aux_emitted = Array.exists (fun v -> is_aux_var gp_var_names.(v)) gp_emit;
    gp_emit;
    gp_scratch = None;
  }

let gp_instance gp = { gp with gp_scratch = None }

(** The canonical codes of the globals [gp]'s premises name, in
    [gp_globals] order: a rule whose pins moved since its last search can
    have new matches among old rows. *)
let pins idx (gp : gplan) : int array =
  Array.map
    (fun x ->
      match Hashtbl.find_opt idx.globals x with
      | Some v -> Arena.encode (Egraph.pool idx.eg) (Egraph.canon idx.eg v)
      | None -> error "unbound global %s" x)
    gp.gp_globals

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

(* the table of an atom no [Distinct] step has visited yet *)
let no_seen = { sn_rows = [||]; sn_gens = [||]; sn_gen = 0; sn_count = 0 }

(* the codes of [tbl]'s row [r] in the [bind] columns *)
let sn_hash tbl r (bind : int array) =
  let h = ref 0 and i = ref 0 in
  while !i < Array.length bind do
    h := (!h * 31) + Arena.col_code tbl r (Array.unsafe_get bind !i);
    i := !i + 2
  done;
  (!h * 0x9E3779B1) lsr 4

let sn_same tbl r r' (bind : int array) =
  let i = ref 0 in
  while
    !i < Array.length bind
    &&
    let c = Array.unsafe_get bind !i in
    Arena.col_code tbl r c = Arena.col_code tbl r' c
  do
    i := !i + 2
  done;
  !i >= Array.length bind

(* a free slot of [sn] for [r]'s codes, or -1 when a row with them is there *)
let sn_slot sn tbl r bind =
  let mask = Array.length sn.sn_rows - 1 in
  let i = ref (sn_hash tbl r bind land mask) in
  while Array.unsafe_get sn.sn_gens !i = sn.sn_gen && not (sn_same tbl r sn.sn_rows.(!i) bind) do
    i := (!i + 1) land mask
  done;
  if Array.unsafe_get sn.sn_gens !i = sn.sn_gen then -1 else !i

let sn_add sn i r =
  sn.sn_rows.(i) <- r;
  sn.sn_gens.(i) <- sn.sn_gen;
  sn.sn_count <- sn.sn_count + 1

(* true the first time this visit meets [r]'s codes in the [bind] columns *)
let sn_first sn tbl r bind =
  if 2 * (sn.sn_count + 1) > Array.length sn.sn_rows then begin
    let rows = sn.sn_rows and gens = sn.sn_gens in
    sn.sn_rows <- Array.make (2 * Array.length rows) 0;
    sn.sn_gens <- Array.make (2 * Array.length rows) 0;
    sn.sn_count <- 0;
    Array.iteri
      (fun i g -> if g = sn.sn_gen then sn_add sn (sn_slot sn tbl rows.(i) bind) rows.(i))
      gens
  end;
  match sn_slot sn tbl r bind with
  | -1 -> false
  | i ->
    sn_add sn i r;
    true

(* [gp]'s scratch for the index's e-graph, made on first use *)
let scratch_of idx (gp : gplan) : scratch =
  match gp.gp_scratch with
  | Some sc when sc.sc_eg == idx.eg -> sc
  | _ ->
    let eg = idx.eg in
    let funcs = Array.map (fun ga -> Egraph.find_func eg ga.g_sym) gp.gp_atoms in
    let tables = Array.map (fun (f : Egraph.func) -> f.Egraph.store) funcs in
    let n_vars = Array.length gp.gp_var_names and n_atoms = Array.length gp.gp_atoms in
    let env = Array.make (n_vars + Array.length gp.gp_consts + Array.length gp.gp_globals) (-1) in
    Array.blit gp.gp_consts 0 env n_vars (Array.length gp.gp_consts);
    let sc =
      {
        sc_eg = eg;
        sc_funcs = funcs;
        sc_tables = tables;
        sc_cidxs = Array.mapi (fun i f -> colindex_of idx f tables.(i)) funcs;
        sc_env = env;
        sc_lo = Array.make n_atoms 0;
        sc_hi = Array.make n_atoms 0;
        sc_keys = Array.map (fun ga -> Array.make (Array.length ga.g_slots - 1) 0) gp.gp_atoms;
        sc_seen = Array.make n_atoms no_seen;
        sc_rows = [||];
        sc_n = 0;
        sc_packed = [||];
      }
    in
    gp.gp_scratch <- Some sc;
    sc

(* room for [n] ints in [a], keeping the first [used] *)
let reserve (a : int array) used n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 used;
    b
  end

(** The join: runs every seminaive term of [gp] against the snapshot and
    leaves each match's emitted codes, in [gp_emit] order, in [sc_rows]
    ([sc_n] of them).  Deterministic: terms in atom order, each term's
    atoms in its compiled order, rows in row order.  Allocates nothing per
    row or match once the scratch has grown to fit.  A plan with no atoms
    has exactly one (empty) match, found by the full search ([since < 0])
    only. *)
let join idx (gp : gplan) ~(since : int) : scratch =
  let sc = scratch_of idx gp in
  let tables = sc.sc_tables and env = sc.sc_env and lo = sc.sc_lo and hi = sc.sc_hi in
  let emit = gp.gp_emit in
  let width = Array.length emit in
  let pin_base = Array.length gp.gp_var_names + Array.length gp.gp_consts in
  Array.iteri (fun g c -> env.(pin_base + g) <- c) (pins idx gp);
  sc.sc_n <- 0;
  let rec go (steps : step array) k =
    if k = Array.length steps then begin
      let base = sc.sc_n * width in
      if base + width > Array.length sc.sc_rows then
        sc.sc_rows <- reserve sc.sc_rows base (base + width);
      let rows = sc.sc_rows in
      for i = 0 to width - 1 do
        Array.unsafe_set rows (base + i) (Array.unsafe_get env (Array.unsafe_get emit i))
      done;
      sc.sc_n <- sc.sc_n + 1
    end
    else begin
      let st = Array.unsafe_get steps k in
      let a = st.st_atom in
      let tbl = Array.unsafe_get tables a in
      let lo = Array.unsafe_get lo a and hi = Array.unsafe_get hi a in
      if st.st_mode = Distinct then begin
        if sc.sc_seen.(a) == no_seen then
          sc.sc_seen.(a) <-
            { sn_rows = Array.make 16 0; sn_gens = Array.make 16 0; sn_gen = 0; sn_count = 0 };
        let sn = sc.sc_seen.(a) in
        sn.sn_gen <- sn.sn_gen + 1;
        sn.sn_count <- 0
      end;
      match st.st_probe with
      | Key ->
        let key = Array.unsafe_get sc.sc_keys a and src = st.st_src in
        for i = 0 to Array.length src - 1 do
          Array.unsafe_set key i (Array.unsafe_get env (Array.unsafe_get src i))
        done;
        let r = Arena.find tbl key in
        if r >= lo && r < hi then ignore (visit steps k st tbl r)
      | Scan ->
        let r = ref lo in
        while !r < hi do
          if (not (Arena.is_dead tbl !r)) && visit steps k st tbl !r then r := hi else incr r
        done
      | Col c ->
        let cm = (Array.unsafe_get sc.sc_cidxs a).ci_cols.(c) in
        if not (cm_fresh cm tbl) then cm_sync cm tbl c;
        let b = im_find cm.cm_im (Array.unsafe_get env (Array.unsafe_get st.st_src 0)) in
        let i = ref (bsearch_ge b.iv_buf 0 b.iv_len lo) in
        while !i < b.iv_len && Array.unsafe_get b.iv_buf !i < hi do
          if visit steps k st tbl (Array.unsafe_get b.iv_buf !i) then i := b.iv_len else incr i
        done
    end
  (* one candidate row of step [k]: bind, check, go on; true when the
     step needs no further rows *)
  and visit steps k st tbl r =
    let bind = st.st_bind and check = st.st_check in
    let i = ref 0 in
    while !i < Array.length bind do
      Array.unsafe_set env
        (Array.unsafe_get bind (!i + 1))
        (Arena.col_code tbl r (Array.unsafe_get bind !i));
      i := !i + 2
    done;
    let j = ref 0 in
    while
      !j < Array.length check
      && Arena.col_code tbl r (Array.unsafe_get check !j)
         = Array.unsafe_get env (Array.unsafe_get check (!j + 1))
    do
      j := !j + 2
    done;
    if !j < Array.length check then false
    else
      match st.st_mode with
      | Each ->
        go steps (k + 1);
        false
      | First ->
        go steps (k + 1);
        true
      | Distinct ->
        if sn_first sc.sc_seen.(st.st_atom) tbl r bind then go steps (k + 1);
        false
  in
  let n_atoms = Array.length gp.gp_atoms in
  if n_atoms = 0 then (if since < 0 then go [||] 0)
  else
    for t = 0 to n_atoms - 1 do
      let dn = Arena.n_rows tables.(t) in
      let ds = Arena.delta_start tables.(t) ~since in
      if sc.sc_funcs.(t).Egraph.last_modified > since && ds < dn then begin
        (* atoms before [t] see only old rows, atoms after it every row *)
        let empty = ref false in
        for u = 0 to n_atoms - 1 do
          lo.(u) <- (if u = t then ds else 0);
          hi.(u) <-
            (if u = t then dn
             else if u < t then Arena.delta_start tables.(u) ~since
             else Arena.n_rows tables.(u));
          if hi.(u) <= lo.(u) then empty := true
        done;
        if not !empty then go (Lazy.force gp.gp_terms.(t)) 0
      end
    done;
  sc

(** The residual facts, in the order they run on each row. *)
let gp_residuals gp = gp.gp_residuals

(** The packed-row slots' variable names: the join's emitted variables,
    then the residual-bound ones. *)
let gp_slot_names gp =
  Array.append (Array.map (fun v -> gp.gp_var_names.(v)) gp.gp_emit) gp.gp_res_vars

(** Packed-row slots of the premises' own (non-aux) variables. *)
let gp_own_slots gp =
  let names = gp_slot_names gp in
  Array.of_list
    (List.filter (fun i -> not (is_aux_var names.(i))) (List.init (Array.length names) Fun.id))

(** The sort of each packed-row slot: a join variable's is read off its
    first pattern occurrence (argument column -> that argument's sort,
    output column -> the function's return sort); a residual-bound
    variable's is not known until its value is. *)
let gp_slot_sorts idx gp =
  let is_v v = function G_var v' -> v' = v | _ -> false in
  let sort_of v =
    let a = find_index (fun ga -> Array.exists (is_v v) ga.g_slots) gp.gp_atoms in
    let ga = gp.gp_atoms.(a) in
    let c = find_index (is_v v) ga.g_slots in
    let f = Egraph.find_func idx.eg ga.g_sym in
    Some (if c < Array.length f.Egraph.arg_sorts then f.Egraph.arg_sorts.(c) else f.Egraph.ret_sort)
  in
  Array.append (Array.map sort_of gp.gp_emit) (Array.map (fun _ -> None) gp.gp_res_vars)

(** Seminaive solve: every match of the plan that involves at least one
    row newer than stamp [since] ([~since:-1] is the full join), as a flat
    row of arena codes in {!gp_slot_names} order.  Per delta atom [t], the
    term joins [t]'s delta {e suffix} against old {e prefixes} (atoms
    before [t]) and full tables (after), so every combination of rows is
    derived by exactly one term.  A plan with residuals gives each join
    row one slot per residual-bound variable (initially [-1]) and keeps it
    when [residual] — the caller's compiled residuals, which fill those
    slots — returns true.  Rows equal on the join's codes are dropped
    first when some atom has a wildcard argument column (rows differing
    in an unbound column witness the same match), and rows equal on the own
    variables last when aux variables were emitted, each time keeping the
    first.  The rows live in the plan instance's scratch until its next
    search. *)
type packed = { pk_buf : int array; pk_rows : int; pk_width : int }

let gsolve_packed idx (gp : gplan) ~(since : int) ~(residual : int array -> bool) : packed =
  let sc = join idx gp ~since in
  let w = Array.length gp.gp_emit in
  if gp.gp_residuals = [] && not (gp.gp_may_dup || gp.gp_aux_emitted) then
    { pk_buf = sc.sc_rows; pk_rows = sc.sc_n; pk_width = w }
  else begin
    (* the residuals run once the join is done, so a fault they raise
       cannot leave the join's scratch half-updated *)
    let width = w + Array.length gp.gp_res_vars in
    let first seen key = (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true) in
    let seen_join = Hashtbl.create 16 and seen_own = Hashtbl.create 16 in
    let own = gp_own_slots gp in
    let row = Array.make width (-1) in
    let n = ref 0 in
    for i = 0 to sc.sc_n - 1 do
      Array.blit sc.sc_rows (i * w) row 0 w;
      Array.fill row w (width - w) (-1);
      if
        ((not gp.gp_may_dup) || first seen_join (Array.sub row 0 w))
        && (gp.gp_residuals = [] || residual row)
        && ((not gp.gp_aux_emitted) || first seen_own (Array.map (Array.get row) own))
      then begin
        sc.sc_packed <- reserve sc.sc_packed (!n * width) ((!n + 1) * width);
        Array.blit row 0 sc.sc_packed (!n * width) width;
        incr n
      end
    done;
    { pk_buf = sc.sc_packed; pk_rows = !n; pk_width = width }
  end
