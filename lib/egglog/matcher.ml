(** E-matching: finding all substitutions under which a rule's premises hold
    in the current e-graph.

    There is one matcher, the generic join.  A rule's premises are
    flattened once ({!compile}) and then compiled against the e-graph
    ({!gcompile}) into flat table atoms — every column a variable, a
    literal, a global, or a wildcard — plus {e residual} facts that only
    involve primitives.  {!gsolve_packed} joins the atoms variable by
    variable over per-(function, column) indexes of the arena tables,
    seminaively (only matches involving a row newer than a given stamp),
    into rows of arena codes; the caller's compiled residuals then filter
    each row and fill the slots they bind.

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
   defined with the generic join below) *)
type imap = {
  mutable im_keys : int array;  (* -1 = empty *)
  mutable im_vals : ivec array;
  mutable im_count : int;
  mutable im_mask : int;
}

(* Per-function column index over an arena table: for every column
   (arguments and output), a hashtable from code to the ascending vector of
   row indices holding that code.  Feeds the generic join.  Rows appended
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

(* ------------------------------------------------------------------ *)
(* Premise flattening                                                  *)
(* ------------------------------------------------------------------ *)

(** A flattened rule body.  [p_facts] is the premise list with every
    declared-function application nested inside another pattern hoisted
    into its own [(= ?aux (f ...))] fact, placed next to its parent so
    later guards still see its variables bound.  The fact order and the
    aux-variable names fix the join's atom and variable order. *)
type plan = { p_facts : Ast.fact list }

(** Hoist nested declared-function applications out of pattern positions.

    Placement matters for join cost, so two regimes are used, keyed on
    whether the subtree's variables are all bound by {e earlier} facts:
    - a {e ground} subtree (e.g. [(type-of ?y)] with [?y] bound above)
      becomes O(1) lookups, so its facts go {e before} the parent fact,
      innermost first;
    - a {e binding} subtree (a destructuring pattern like the inner matmul
      of [(linalg_matmul (linalg_matmul ...) ...)]) goes {e after} the
      parent fact, outermost first, so each child's aux var is already
      bound (by the parent's args) and its rows are found through the
      output column's index rather than a full table scan. *)
let compile (facts : Ast.fact list) : plan =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "?__sn%d" !counter
  in
  (* variables bound by the facts already emitted *)
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* ground subtrees already hoisted, keyed syntactically: a repeated
     occurrence (e.g. [(type-of ?x)] under both [nrows] and [ncols])
     reuses the first aux var instead of emitting a duplicate fact *)
  let cse : (Ast.expr, string) Hashtbl.t = Hashtbl.create 16 in
  let rec add_vars (e : Ast.expr) =
    match e with
    | Ast.Var x -> Hashtbl.replace bound x ()
    | Ast.Call (_, args) -> List.iter add_vars args
    | Wildcard | Lit _ -> ()
  in
  let rec is_ground_subtree (e : Ast.expr) =
    match e with
    | Ast.Var x -> Hashtbl.mem bound x
    | Ast.Wildcard -> false
    | Ast.Lit _ -> true
    | Ast.Call (_, args) -> List.for_all is_ground_subtree args
  in
  (* ground regime: child facts accumulate onto [pre], innermost first *)
  let rec flatten_ground pre (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (f, _) when Primitives.is_primitive f -> e
    | Ast.Call (f, args) ->
      let args' =
        List.map
          (fun a ->
            match a with
            | Ast.Call (g, _) when not (Primitives.is_primitive g) -> (
              match Hashtbl.find_opt cse a with
              | Some aux -> Ast.Var aux
              | None ->
                let a' = flatten_ground pre a in
                let aux = fresh () in
                pre := !pre @ [ Ast.F_eq [ Ast.Var aux; a' ] ];
                Hashtbl.add cse a aux;
                Ast.Var aux)
            | _ -> flatten_ground pre a)
          args
      in
      Ast.Call (f, args')
    | Var _ | Wildcard | Lit _ -> e
  in
  (* binding regime: ground children onto [pre]; binding children onto
     [suf], each parent before its own children *)
  let rec flatten_pat pre suf (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (f, _) when Primitives.is_primitive f -> e
    | Ast.Call (f, args) ->
      let args' =
        List.map
          (fun a ->
            match a with
            | Ast.Call (g, _) when not (Primitives.is_primitive g) ->
              if is_ground_subtree a then
                match Hashtbl.find_opt cse a with
                | Some aux -> Ast.Var aux
                | None ->
                  let a' = flatten_ground pre a in
                  let aux = fresh () in
                  pre := !pre @ [ Ast.F_eq [ Ast.Var aux; a' ] ];
                  Hashtbl.add cse a aux;
                  Ast.Var aux
              else begin
                let aux = fresh () in
                let sub_suf = ref [] in
                let a' = flatten_pat pre sub_suf a in
                suf := !suf @ (Ast.F_eq [ Ast.Var aux; a' ] :: !sub_suf);
                Ast.Var aux
              end
            | _ -> flatten_pat pre suf a)
          args
      in
      Ast.Call (f, args')
    | Var _ | Wildcard | Lit _ -> e
  in
  let flatten_fact (fact : Ast.fact) : Ast.fact list =
    let pre = ref [] and suf = ref [] in
    let fact' =
      match fact with
      | Ast.F_expr e -> Ast.F_expr (flatten_pat pre suf e)
      | Ast.F_eq es -> Ast.F_eq (List.map (flatten_pat pre suf) es)
    in
    let group = !pre @ (fact' :: !suf) in
    (* everything this group can bind is bound for the facts that follow *)
    List.iter
      (function Ast.F_eq es -> List.iter add_vars es | Ast.F_expr e -> add_vars e)
      group;
    group
  in
  { p_facts = List.concat_map flatten_fact facts }

(** Compiler-generated auxiliary variable? ({!compile} and {!gcompile}
    name theirs [?__sn...]) *)
let is_aux_var x = String.length x >= 5 && String.sub x 0 5 = "?__sn"

(* ------------------------------------------------------------------ *)
(* Column indexes and the generic join                                *)
(* ------------------------------------------------------------------ *)

(** Column index for [f]'s arena table.  Appends rows indexed since the
    last call; rebuilds from scratch only when the table's row numbering
    changed ({!Arena.compact} bumped the version) or rows died without a
    compaction (never the case during a search phase, which always runs on
    a freshly rebuilt graph). *)
let iv_push v x =
  (if v.iv_len = Array.length v.iv_buf then begin
     let nb = Array.make (max 8 (2 * v.iv_len)) 0 in
     Array.blit v.iv_buf 0 nb 0 v.iv_len;
     v.iv_buf <- nb
   end);
  v.iv_buf.(v.iv_len) <- x;
  v.iv_len <- v.iv_len + 1

(* Open-addressed int -> ivec map for the column-index buckets.  These sit
   on the hottest search paths (one probe per candidate x occurrence), and
   [Hashtbl.find_opt] boxes an option per hit; linear probing over flat
   int keys does not allocate at all.  Keys are arena codes, always >= 0,
   so [-1] marks an empty slot.  No deletion. *)
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
   pays for the columns its join actually probes. *)
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

(* --- compiled generic-join plans ------------------------------------- *)

(** One column of a flat atom: a join variable, a pinned literal code, a
    global (pinned to its canonical code afresh at every search, since the
    global's class can merge mid-run), or unconstrained (wildcard /
    don't-care output). *)
type gslot = G_var of int | G_lit of int | G_global of int | G_free

(** A flat table atom [(f c₀ … cₙ₋₁) ↦ cₙ]: every column is a variable,
    literal, global, or wildcard — no nested patterns ({!gcompile}
    hoists those into atoms and residuals of their own). *)
type gatom = { g_sym : Symbol.t; g_slots : gslot array }

(** A rule body compiled for the generic join: flat atoms joined
    variable-by-variable over column indexes, then pure-primitive residual
    facts run by the caller on each packed row. *)
type gplan = {
  gp_atoms : gatom array;
  gp_residuals : Ast.fact list;  (* in the order they run *)
  gp_res_vars : string array;
      (* variables the residuals mention that no atom binds: one packed-row
         slot each, after the join's, for the residuals to fill *)
  gp_var_names : string array;
  gp_globals : string array;
      (* every global the premises name (pinned columns index into it);
         {!pins} reads their canonical codes *)
  gp_occs : (int * int) array array;  (* var id -> (atom, column) occurrences *)
  gp_touched : int array array;  (* var id -> distinct atoms it occurs in *)
  gp_may_dup : bool;
      (* some atom has a wildcard column, so distinct witnessing rows can
         yield the same emitted codes and results need deduplication *)
  gp_aux_emitted : bool;
      (* some emitted variable is a compiler aux var (a residual reads it,
         or the consumer asked for everything) *)
  gp_emit : int array;
      (* var ids the join emits into packed rows: only what the rule's
         residuals and actions read (all vars when the consumer is unknown) *)
  gp_join_vars : int;
      (* number of vars with >= 2 occurrences: only these need generic-join
         elimination; the rest are read off surviving rows at emit time *)
  gp_emit_join : (int * int) array;
      (* emitted subset of the join vars, as (var, emit slot) pairs *)
  gp_read : (int * int) array array;
      (* per atom: (emit slot, column) of its emitted single-occurrence vars *)
  gp_lits : (int * int * int) array;
      (* (atom, column, code) of every pinned literal column *)
  gp_pins : (int * int * int) array;
      (* (atom, column, global) of every column pinned to a global *)
  gp_slot : int array;  (* var -> its position in gp_emit (-1 not emitted) *)
  gp_join_list : int array;  (* var ids with >= 2 occurrences, ascending *)
  mutable gp_scratch : gscratch option;
      (* per-plan working state reused across searches; rebuilt when the
         e-graph it was built against is swapped out *)
}

(* All the allocations a generic-join search needs, hoisted out of the
   per-call path: resolved tables, row-set slots, per-variable candidate
   and save/restore buffers, and the emission row. *)
and gscratch = {
  gs_eg : Egraph.t;  (* validity token: compare with the index's graph *)
  gs_funcs : Egraph.func array;
  gs_tables : Arena.table array;
  gs_cidxs : colindex array;
  gs_range_mark : int array;
  gs_rs_buf : int array array;
  gs_rs_lo : int array;
  gs_rs_hi : int array;
  gs_cands : ivec array;
  gs_sv_buf : int array array array;
  gs_sv_lo : int array array;
  gs_sv_hi : int array array;
  gs_ibuf : int array array array;
      (* per (join var, occurrence): persistent intersection output buffer,
         grown on demand — restriction never allocates in steady state *)
  gs_lbuf : int array array;  (* per atom: ditto, for literal pinning *)
  gs_seen : (int, int) Hashtbl.t;
  mutable gs_node_id : int;  (* monotonic across calls: stale [gs_seen]
                                entries never match a live generation *)
  gs_assignment : int array;
  gs_assigned : bool array;
  gs_out : int array;  (* emitted codes, gp_emit order *)
}

(* [l] without its first element physically equal to [x] *)
let rec remove_first x = function
  | [] -> []
  | y :: l -> if y == x then l else y :: remove_first x l

(** Compile a flattened plan for the generic join.  Every premise shape
    compiles:
    - a table application is an atom whose columns hold variables,
      literals, globals or wildcards;
    - a primitive call or [vec-of] in a column is hoisted into a residual
      [(= ?aux e)] on a fresh variable;
    - a table application inside a primitive call is hoisted into an atom
      on a fresh output variable;
    - an equality over several table applications becomes one atom each,
      all sharing one output column;
    - a fact with no table application is a residual, run after the join
      once what it evaluates is bound.
    [pinned] are the bare names that denote globals; [keep] names the
    variables the consumer reads (default: all).  Raises {!Error} on an
    unknown function or an arity mismatch. *)
let gcompile ?(keep : string list option) ~(pinned : string list) idx (p : plan) : gplan =
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
  List.iter (fun f -> List.iter scan_globals (exprs_of f)) p.p_facts;
  let n_aux = ref 0 in
  let fresh_aux () =
    incr n_aux;
    Printf.sprintf "?__snj%d" !n_aux
  in
  let atoms = ref [] and residuals = ref [] in
  let rec has_table_call (e : Ast.expr) =
    match e with
    | Ast.Call (f, args) -> is_table f || List.exists has_table_call args
    | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> false
  in
  (* the column slot for [e], hoisting what a column cannot hold *)
  let rec slot_of (e : Ast.expr) : gslot =
    match e with
    | Ast.Wildcard -> G_free
    | Ast.Lit l -> G_lit (Arena.encode pool (value_of_lit l))
    | Ast.Var x -> (
      match Hashtbl.find_opt globals x with
      | Some g -> G_global g
      | None -> G_var (var_id x))
    | Ast.Call (f, args) when is_table f ->
      let out = G_var (var_id (fresh_aux ())) in
      add_atom f args out;
      out
    | Ast.Call _ ->
      let aux = fresh_aux () in
      let out = G_var (var_id aux) in
      residuals := Ast.F_eq [ Ast.Var aux; hoist e ] :: !residuals;
      out
  and add_atom f args (out : gslot) =
    let fn =
      match Egraph.find_func_opt idx.eg (Symbol.intern f) with
      | Some fn -> fn
      | None -> error "unknown function %s in pattern" f
    in
    let arity = Array.length fn.Egraph.arg_sorts in
    if List.length args <> arity then
      error "%s expects %d arguments in a pattern, got %d" f arity (List.length args);
    let slots = Array.make (arity + 1) G_free in
    List.iteri (fun i a -> slots.(i) <- slot_of a) args;
    slots.(arity) <- out;
    atoms := { g_sym = fn.Egraph.sym; g_slots = slots } :: !atoms
  (* an evaluated expression: its table applications become atoms *)
  and hoist (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (f, args) when is_table f ->
      let aux = fresh_aux () in
      add_atom f args (G_var (var_id aux));
      Ast.Var aux
    | Ast.Call (f, args) -> Ast.Call (f, List.map hoist args)
    | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> e
  in
  List.iter
    (fun (fact : Ast.fact) ->
      if not (List.exists has_table_call (exprs_of fact)) then
        residuals := fact :: !residuals
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
          add_atom f args out
        | Ast.F_expr e -> residuals := Ast.F_expr (hoist e) :: !residuals
        | Ast.F_eq es ->
          let calls, others =
            List.partition (function Ast.Call (f, _) -> is_table f | _ -> false) es
          in
          (* one output column shared by every application: the first
             variable or literal conjunct, else nothing for a lone
             application among wildcards, else a fresh variable; every
             other conjunct must equal it *)
          let binder, out, rest =
            match
              List.find_opt (function Ast.Var _ | Ast.Lit _ -> true | _ -> false) others
            with
            | Some b ->
              let out = slot_of b in
              (Some b, out, remove_first b others)
            | None when List.length calls = 1 && List.for_all (( = ) Ast.Wildcard) others ->
              (None, G_free, [])
            | None ->
              let b = Ast.Var (fresh_aux ()) in
              let out = slot_of b in
              (Some b, out, others)
          in
          List.iter
            (function Ast.Call (f, args) -> add_atom f args out | _ -> ())
            calls;
          List.iter
            (fun e ->
              match (e, binder) with
              | Ast.Wildcard, _ | _, None -> ()
              | e, Some b -> residuals := Ast.F_eq [ b; hoist e ] :: !residuals)
            rest)
    p.p_facts;
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
  let occs = Array.make (Array.length gp_var_names) [] in
  Array.iteri
    (fun ai ga ->
      Array.iteri
        (fun c slot ->
          match slot with
          | G_var v -> occs.(v) <- (ai, c) :: occs.(v)
          | _ -> ())
        ga.g_slots)
    gp_atoms;
  let gp_occs = Array.map (fun l -> Array.of_list (List.rev l)) occs in
  let gp_touched =
    Array.map
      (fun o ->
        Array.of_list
          (List.sort_uniq compare (List.map fst (Array.to_list o))))
      gp_occs
  in
  let gp_may_dup =
    Array.exists
      (fun ga -> Array.exists (fun s -> s = G_free) ga.g_slots)
      gp_atoms
  in
  let is_join = Array.map (fun o -> Array.length o >= 2) gp_occs in
  let gp_join_vars =
    Array.fold_left (fun n j -> if j then n + 1 else n) 0 is_join
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
  let emitted = Array.make (Array.length gp_var_names) false in
  Array.iter (fun v -> emitted.(v) <- true) gp_emit;
  let gp_slot = Array.make (Array.length gp_var_names) (-1) in
  Array.iteri (fun i v -> gp_slot.(v) <- i) gp_emit;
  let gp_emit_join = Array.of_list
      (List.map (fun v -> (v, gp_slot.(v)))
         (List.filter (fun v -> is_join.(v)) (Array.to_list gp_emit)))
  in
  let gp_read =
    Array.map
      (fun ga ->
        let acc = ref [] in
        Array.iteri
          (fun c slot ->
            match slot with
            | G_var v when (not is_join.(v)) && emitted.(v) ->
              acc := (gp_slot.(v), c) :: !acc
            | _ -> ())
          ga.g_slots;
        Array.of_list (List.rev !acc))
      gp_atoms
  in
  (* every (atom, column, x) whose slot passes [pick] *)
  let columns pick =
    let acc = ref [] in
    Array.iteri
      (fun ai ga ->
        Array.iteri
          (fun c slot ->
            match pick slot with Some x -> acc := (ai, c, x) :: !acc | None -> ())
          ga.g_slots)
      gp_atoms;
    Array.of_list (List.rev !acc)
  in
  let gp_lits = columns (function G_lit code -> Some code | _ -> None) in
  let gp_pins = columns (function G_global g -> Some g | _ -> None) in
  let gp_join_list =
    let acc = ref [] in
    Array.iteri (fun v j -> if j then acc := v :: !acc) is_join;
    Array.of_list (List.rev !acc)
  in
  {
    gp_atoms;
    gp_residuals;
    gp_res_vars;
    gp_var_names;
    gp_globals;
    gp_occs;
    gp_touched;
    gp_may_dup;
    gp_aux_emitted = Array.exists (fun v -> is_aux_var gp_var_names.(v)) gp_emit;
    gp_emit;
    gp_join_vars;
    gp_emit_join;
    gp_read;
    gp_lits;
    gp_pins;
    gp_slot;
    gp_join_list;
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


(** Shared generic-join driver: runs every seminaive term of [gp] against
    the snapshot and calls [flush] once per satisfying assignment, with the
    emitted variables' arena {e codes} filled into a scratch row in
    [gp_emit] order ([flush] must copy what it keeps).  Deterministic:
    terms in atom order, candidates in row order.  A plan with no atoms
    has exactly one (empty) assignment, reported by the full search
    ([since < 0]) only. *)
let gsolve_core idx (gp : gplan) ~(since : int) ~(flush : int array -> unit) :
    unit =
  let eg = idx.eg in
  let n_atoms = Array.length gp.gp_atoms in
  let n_vars = Array.length gp.gp_var_names in
  let gs =
    match gp.gp_scratch with
    | Some gs when gs.gs_eg == eg -> gs
    | _ ->
      let funcs = Array.map (fun ga -> Egraph.find_func eg ga.g_sym) gp.gp_atoms in
      let tables = Array.map (fun (f : Egraph.func) -> f.Egraph.store) funcs in
      let range_mark = Array.make 1 0 in
      let gs =
        {
          gs_eg = eg;
          gs_funcs = funcs;
          gs_tables = tables;
          gs_cidxs = Array.mapi (fun i f -> colindex_of idx f tables.(i)) funcs;
          gs_range_mark = range_mark;
          gs_rs_buf = Array.make n_atoms range_mark;
          gs_rs_lo = Array.make n_atoms 0;
          gs_rs_hi = Array.make n_atoms 0;
          gs_cands =
            Array.init n_vars (fun _ -> { iv_buf = Array.make 8 0; iv_len = 0 });
          gs_sv_buf =
            Array.map (fun t -> Array.make (Array.length t) range_mark) gp.gp_touched;
          gs_sv_lo = Array.map (fun t -> Array.make (Array.length t) 0) gp.gp_touched;
          gs_sv_hi = Array.map (fun t -> Array.make (Array.length t) 0) gp.gp_touched;
          gs_ibuf =
            Array.map (fun occs -> Array.make (max 1 (Array.length occs)) [||]) gp.gp_occs;
          gs_lbuf = Array.make (max 1 n_atoms) [||];
          gs_seen = Hashtbl.create 64;
          gs_node_id = 0;
          gs_assignment = Array.make n_vars (-1);
          gs_assigned = Array.make n_vars false;
          gs_out = Array.make (Array.length gp.gp_emit) (-1);
        }
      in
      gp.gp_scratch <- Some gs;
      gs
  in
  let funcs = gs.gs_funcs and tables = gs.gs_tables and cidxs = gs.gs_cidxs in
  let pin_codes = pins idx gp in
  (* columns sync lazily on first probe (the records are mutated in place
     and shared through [idx.colindexes], so one sync serves every rule,
     and a column no rule probes is never built) *)
  let bucket ai col code : ivec =
    let a = Array.unsafe_get tables ai in
    let cm = (Array.unsafe_get cidxs ai).ci_cols.(col) in
    if not (cm_fresh cm a) then cm_sync cm a col;
    im_find cm.cm_im code
  in
  (* Each atom's current row set lives in three parallel slots, mutated in
     place and save/restored around each candidate: [rs_buf.(u) == range_mark]
     means the contiguous row range [lo, hi), otherwise [rs_buf.(u)] is an
     ascending row array viewed through indices [lo, hi). *)
  let range_mark = gs.gs_range_mark in
  let rs_buf = gs.gs_rs_buf in
  let rs_lo = gs.gs_rs_lo in
  let rs_hi = gs.gs_rs_hi in
  let rs_size u = rs_hi.(u) - rs_lo.(u) in
  (* restrict atom [u]'s row set to rows whose column holds [code]; false
     if it became empty *)
  let restrict u (b : ivec) (bufs : int array array) bi =
    if rs_buf.(u) == range_mark then begin
      let i = bsearch_ge b.iv_buf 0 b.iv_len rs_lo.(u) in
      let j = bsearch_ge b.iv_buf i b.iv_len rs_hi.(u) in
      rs_buf.(u) <- b.iv_buf;
      rs_lo.(u) <- i;
      rs_hi.(u) <- j;
      i < j
    end
    else begin
      let a = rs_buf.(u) and ai = rs_lo.(u) and aj = rs_hi.(u) in
      let nb = b.iv_len in
      if nb = 0 then begin
        rs_hi.(u) <- ai;
        false
      end
      else begin
        let cap = min (aj - ai) nb in
        let out =
          let o = bufs.(bi) in
          if Array.length o >= cap then o
          else begin
            let o = Array.make (max cap ((2 * Array.length o) + 8)) 0 in
            bufs.(bi) <- o;
            o
          end
        in
        (* [out] may alias [a] (buffer reuse along a literal chain): the
           write index never passes the read index, so in-place is fine *)
        let k = ref 0 and i = ref ai and j = ref 0 in
        while !i < aj && !j < nb do
          let x = Array.unsafe_get a !i and y = Array.unsafe_get b.iv_buf !j in
          if x = y then begin
            Array.unsafe_set out !k x;
            incr k;
            incr i;
            incr j
          end
          else if x < y then incr i
          else incr j
        done;
        rs_buf.(u) <- out;
        rs_lo.(u) <- 0;
        rs_hi.(u) <- !k;
        !k > 0
      end
    end
  in
  let iter_rows u tbl k =
    if rs_buf.(u) == range_mark then
      for r = rs_lo.(u) to rs_hi.(u) - 1 do
        if not (Arena.is_dead tbl r) then k r
      done
    else begin
      let a = rs_buf.(u) in
      for t = rs_lo.(u) to rs_hi.(u) - 1 do
        k a.(t)
      done
    end
  in
  (* per-variable scratch: candidate codes and the saved row-set slots of
     the atoms the variable touches (a variable is on at most one branch
     of the elimination tree at a time, so per-var scratch cannot be
     clobbered by recursion) *)
  let cands = gs.gs_cands in
  let sv_buf = gs.gs_sv_buf in
  let sv_lo = gs.gs_sv_lo in
  let sv_hi = gs.gs_sv_hi in
  (* candidate-code dedupe for wide drivers, generation-stamped so it is
     shared by every node of every term — and every call — without
     clearing ([gs_node_id] never repeats) *)
  let seen = gs.gs_seen in
  let assignment = gs.gs_assignment in
  let assigned = gs.gs_assigned in
  let out = gs.gs_out in
  let solve_term t : unit =
    let dn = Arena.n_rows tables.(t) in
    let ds = Arena.delta_start tables.(t) ~since in
    if ds < dn then begin
      let ok = ref true in
      for u = 0 to n_atoms - 1 do
        rs_buf.(u) <- range_mark;
        let tbl = tables.(u) in
        if u = t then begin
          rs_lo.(u) <- ds;
          rs_hi.(u) <- dn
        end
        else begin
          rs_lo.(u) <- 0;
          rs_hi.(u) <- (if u < t then Arena.delta_start tbl ~since else Arena.n_rows tbl)
        end;
        if rs_size u <= 0 then ok := false
      done;
      (* pin literal and global columns first: cheap, and it shrinks the
         driver sets *)
      (let lits = gp.gp_lits and gpins = gp.gp_pins in
       let n_lits = Array.length lits in
       let i = ref 0 in
       while !ok && !i < n_lits + Array.length gpins do
         let u, c, code =
           if !i < n_lits then lits.(!i)
           else
             let u, c, g = gpins.(!i - n_lits) in
             (u, c, pin_codes.(g))
         in
         if not (restrict u (bucket u c code) gs.gs_lbuf u) then ok := false;
         incr i
       done);
      if !ok then begin
        let rec elim n_left =
          if n_left = 0 then begin
            (* all join variables bound: the surviving rows of each atom
               directly enumerate the bindings of its single-occurrence
               variables (usually one row per atom) *)
            Array.iter
              (fun (v, slot) -> out.(slot) <- assignment.(v))
              gp.gp_emit_join;
            let rec rows ai =
              if ai = n_atoms then flush out
              else begin
                let reads = gp.gp_read.(ai) in
                let n_reads = Array.length reads in
                if n_reads = 0 then
                  (* fully bound atom: every column was pinned by a literal
                     or an eliminated join variable, so exactly one (live,
                     bucket-backed) row survives — nothing to read off it *)
                  rows (ai + 1)
                else begin
                  let tbl = tables.(ai) in
                  if rs_buf.(ai) == range_mark then
                    for r = rs_lo.(ai) to rs_hi.(ai) - 1 do
                      if not (Arena.is_dead tbl r) then begin
                        for i = 0 to n_reads - 1 do
                          let slot, c = reads.(i) in
                          out.(slot) <- Arena.col_code tbl r c
                        done;
                        rows (ai + 1)
                      end
                    done
                  else begin
                    let arr = rs_buf.(ai) in
                    for ti = rs_lo.(ai) to rs_hi.(ai) - 1 do
                      let r = Array.unsafe_get arr ti in
                      for i = 0 to n_reads - 1 do
                        let slot, c = reads.(i) in
                        out.(slot) <- Arena.col_code tbl r c
                      done;
                      rows (ai + 1)
                    done
                  end
                end
              end
            in
            rows 0
          end
          else begin
            (* dynamic variable ordering: eliminate the unassigned join
               variable with the smallest occurrence row set, so
               restrictions propagate before wide columns are enumerated.
               Ties break by variable id, then occurrence order —
               deterministic. *)
            let v = ref (-1) and da = ref (-1) and dc = ref (-1) in
            let best = ref max_int in
            let jlist = gp.gp_join_list in
            let n_join = Array.length jlist in
            let w = ref 0 in
            while !best > 1 && !w < n_join do
              let jv = Array.unsafe_get jlist !w in
              (if not assigned.(jv) then begin
                 let occs = gp.gp_occs.(jv) in
                 let k = ref 0 in
                 while !best > 1 && !k < Array.length occs do
                   let a, c = occs.(!k) in
                   let sz = rs_size a in
                   if sz < !best then begin
                     best := sz;
                     v := jv;
                     da := a;
                     dc := c
                   end;
                   incr k
                 done
               end);
              incr w
            done;
            let v = !v and da = !da and dc = !dc in
            let occs = gp.gp_occs.(v) in
            let n_occs = Array.length occs in
            (* distinct codes of the driver column, in row order (keeps the
               search deterministic); hash only when the driver is wide *)
            let cv = cands.(v) in
            cv.iv_len <- 0;
            let small = rs_size da <= 32 in
            if small then
              iter_rows da tables.(da) (fun r ->
                  let code = Arena.col_code tables.(da) r dc in
                  let dup = ref false in
                  for i = 0 to cv.iv_len - 1 do
                    if cv.iv_buf.(i) = code then dup := true
                  done;
                  if not !dup then iv_push cv code)
            else begin
              gs.gs_node_id <- gs.gs_node_id + 1;
              let nid = gs.gs_node_id in
              iter_rows da tables.(da) (fun r ->
                  let code = Arena.col_code tables.(da) r dc in
                  match Hashtbl.find_opt seen code with
                  | Some g when g = nid -> ()
                  | _ ->
                    Hashtbl.replace seen code nid;
                    iv_push cv code)
            end;
            let touched = gp.gp_touched.(v) in
            let n_touched = Array.length touched in
            (* save the pre-candidate row-set slots, restored per candidate *)
            let sb = sv_buf.(v) and sl = sv_lo.(v) and sh = sv_hi.(v) in
            for i = 0 to n_touched - 1 do
              let a = touched.(i) in
              sb.(i) <- rs_buf.(a);
              sl.(i) <- rs_lo.(a);
              sh.(i) <- rs_hi.(a)
            done;
            assigned.(v) <- true;
            for ci = 0 to cv.iv_len - 1 do
              let code = cv.iv_buf.(ci) in
              let ok = ref true in
              let k = ref 0 in
              let ibufs = gs.gs_ibuf.(v) in
              while !ok && !k < n_occs do
                let a, c = occs.(!k) in
                if small && a = da && c = dc then begin
                  (* driver occurrence over a small row set: filter the rows
                     we just enumerated directly — cheaper than probing the
                     column index and intersecting *)
                  let tbl = tables.(a) in
                  let cap = rs_size a in
                  let buf =
                    let o = ibufs.(!k) in
                    if Array.length o >= cap then o
                    else begin
                      let o = Array.make (max cap ((2 * Array.length o) + 8)) 0 in
                      ibufs.(!k) <- o;
                      o
                    end
                  in
                  let n = ref 0 in
                  if rs_buf.(a) == range_mark then
                    for r = rs_lo.(a) to rs_hi.(a) - 1 do
                      if
                        (not (Arena.is_dead tbl r))
                        && Arena.col_code tbl r c = code
                      then begin
                        buf.(!n) <- r;
                        incr n
                      end
                    done
                  else begin
                    let arr = rs_buf.(a) in
                    for t = rs_lo.(a) to rs_hi.(a) - 1 do
                      let r = arr.(t) in
                      if Arena.col_code tbl r c = code then begin
                        buf.(!n) <- r;
                        incr n
                      end
                    done
                  end;
                  rs_buf.(a) <- buf;
                  rs_lo.(a) <- 0;
                  rs_hi.(a) <- !n;
                  if !n = 0 then ok := false
                end
                else if not (restrict a (bucket a c code) ibufs !k) then
                  ok := false;
                incr k
              done;
              if !ok then begin
                assignment.(v) <- code;
                elim (n_left - 1)
              end;
              for i = 0 to n_touched - 1 do
                let a = touched.(i) in
                rs_buf.(a) <- sb.(i);
                rs_lo.(a) <- sl.(i);
                rs_hi.(a) <- sh.(i)
              done
            done;
            assigned.(v) <- false
          end
        in
        elim gp.gp_join_vars
      end
    end
  in
  if n_atoms = 0 then (if since < 0 then flush out)
  else
    for t = 0 to n_atoms - 1 do
      if funcs.(t).Egraph.last_modified > since then solve_term t
    done

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
  Array.append
    (Array.map
       (fun v ->
         let a, c = gp.gp_occs.(v).(0) in
         let f = Egraph.find_func idx.eg gp.gp_atoms.(a).g_sym in
         Some
           (if c < Array.length f.Egraph.arg_sorts then f.Egraph.arg_sorts.(c)
            else f.Egraph.ret_sort))
       gp.gp_emit)
    (Array.map (fun _ -> None) gp.gp_res_vars)

(** Generic-join solve: every match of the plan that involves at least one
    row newer than stamp [since] ([~since:-1] is the full naive join), as
    a flat row of arena codes in {!gp_slot_names} order.  Per delta atom
    [t], the term joins [t]'s delta {e suffix} against old {e prefixes}
    (atoms before [t]) and full tables (after), so every combination of
    rows is derived by exactly one term.  A plan with residuals gives each
    join row one slot per residual-bound variable (initially [-1]) and
    keeps it when [residual] — the caller's compiled residuals, which fill
    those slots — returns true.  Rows equal on the join's codes are
    dropped first when some atom has a wildcard column (rows differing in
    an unbound column witness the same match), and rows equal on the
    own variables last when aux variables were emitted, each time keeping
    the first. *)
type packed = { pk_buf : int array; pk_rows : int; pk_width : int }

let gsolve_packed idx (gp : gplan) ~(since : int) ~(residual : int array -> bool) : packed =
  let width = Array.length gp.gp_emit + Array.length gp.gp_res_vars in
  let buf = ref (Array.make (max 1 (16 * width)) 0) in
  let n = ref 0 in
  let push row =
    let need = (!n + 1) * width in
    if need > Array.length !buf then begin
      let b = Array.make (max need (2 * Array.length !buf)) 0 in
      Array.blit !buf 0 b 0 (!n * width);
      buf := b
    end;
    Array.blit row 0 !buf (!n * width) width;
    incr n
  in
  if gp.gp_residuals = [] && not (gp.gp_may_dup || gp.gp_aux_emitted) then
    gsolve_core idx gp ~since ~flush:push
  else begin
    (* the residuals run once the join is done, so a fault they raise
       cannot leave the join's scratch half-updated *)
    let joined = ref [] in
    gsolve_core idx gp ~since ~flush:(fun out -> joined := Array.copy out :: !joined);
    let first seen key = (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true) in
    let seen_join = Hashtbl.create 16 and seen_own = Hashtbl.create 16 in
    let own = gp_own_slots gp in
    let row = Array.make width (-1) in
    List.iter
      (fun out ->
        let w = Array.length out in
        if (not gp.gp_may_dup) || first seen_join out then begin
          Array.blit out 0 row 0 w;
          Array.fill row w (width - w) (-1);
          if
            (gp.gp_residuals = [] || residual row)
            && ((not gp.gp_aux_emitted)
               || first seen_own (Array.map (Array.get row) own))
          then push row
        end)
      (List.rev !joined)
  end;
  { pk_buf = !buf; pk_rows = !n; pk_width = width }
