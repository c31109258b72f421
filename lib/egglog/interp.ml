(** The Egglog command interpreter: executes programs against an e-graph.

    This is the engine façade used by DialEgg: feed it commands (parsed from
    [.egg] text or built programmatically), then inspect extraction results
    and saturation statistics. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* Slot-compiled actions for the packed apply path: when a rule's matches
   arrive as flat rows of arena codes (Matcher.gsolve_packed), its actions
   are compiled once against the row's slot layout — variable names
   resolved to slot indexes, table names interned, sorts checked
   statically — so applying a match is array indexing and code-level
   e-graph operations, with no Env maps, string hashing, or Value boxing
   on the hot path. *)
type cval =
  | K_slot of int  (* read a packed-row / let slot *)
  | K_global of string  (* resolved in [t.globals] at apply time *)
  | K_const of int  (* pre-encoded code (the pool is append-only/shared) *)
  | K_prim of string * cval array  (* decodes args, encodes the result *)
  | K_table of Egraph.func * cval array * int array  (* + per-node key scratch *)
  | K_check of Egraph.sort_kind * cval
      (* runtime sort check, only where the sort isn't known statically
         (primitive results and globals) *)

type caction =
  | KA_let of int * cval  (* evaluate, then write the slot *)
  | KA_union of cval * cval
  | KA_set of Egraph.func * cval array * int array * cval
  | KA_expr of cval
  | KA_cost of Egraph.func * cval array * int array * cval
  | KA_delete of Egraph.func * cval array * int array
  | KA_panic of string

type capply = {
  ca_acts : caction array;
  ca_slots : int;  (* scratch row width: emitted vars + let bindings *)
}

type rule = {
  r_name : string;
  r_facts : Ast.fact list;
  r_actions : Ast.action list;
  r_ruleset : string option;  (** [None] = the default ruleset *)
  r_refs : Symbol.t list;  (** function tables the premises read *)
  r_calls : (Symbol.t * int) list;
      (** each table the premises call, with the argument count of the call *)
  r_bare : bool;
      (** some premise variable is a bare name rather than a [?]-pattern
          variable: it may name a global now, or after a later [let] *)
  mutable r_gplan : Matcher.gplan option;
      (** the premises flattened and compiled for the generic join, made
          at the first search (and again after a [pop], which restores
          older globals) *)
  mutable r_capply : capply option option;
      (** slot-compiled actions for the packed apply path, resolved lazily
          with [r_gplan] ([Some None] = action shape needs the env
          interpreter) *)
  mutable r_last_scan : int;  (** e-graph clock at the last match scan *)
  mutable r_pins : int array;
      (** canonical codes of the globals the premises name, as of the last
          match scan ({!Matcher.pins}) *)
  (* backoff scheduler state (egg's BackoffScheduler) *)
  mutable r_times_banned : int;
  mutable r_banned_until : int;  (** absolute iteration number; banned while
                                     [iteration < r_banned_until] *)
  (* lifetime statistics *)
  mutable r_n_searches : int;
  mutable r_n_matches : int;  (** matches found (including discarded) *)
  mutable r_n_applied : int;  (** matches actually applied *)
  mutable r_n_bans : int;
  mutable r_search_time : float;
  mutable r_apply_time : float;
}

(** Immutable snapshot of one rule's saturation statistics. *)
type rule_stat = {
  rs_name : string;
  rs_ruleset : string option;
  rs_searches : int;
  rs_matches : int;
  rs_applied : int;
  rs_bans : int;
  rs_search_time : float;
  rs_apply_time : float;
}

(** Why a [(run n)] stopped.  [Fault] carries the structured diagnostic of
    an exception captured mid-saturation (rule panic, merge conflict,
    primitive error): the run stops, the e-graph is re-canonicalized, and
    whatever it contains — at minimum the original program — remains
    extractable. *)
type stop_reason =
  | Saturated
  | Iteration_limit
  | Node_limit
  | Timeout
  | Memory_limit
  | Fault of Diag.t

let pp_stop_reason ppf = function
  | Saturated -> Fmt.string ppf "saturated"
  | Iteration_limit -> Fmt.string ppf "iteration limit"
  | Node_limit -> Fmt.string ppf "node limit"
  | Timeout -> Fmt.string ppf "timeout"
  | Memory_limit -> Fmt.string ppf "memory limit"
  | Fault d -> Fmt.pf ppf "fault: %s" (Diag.to_string d)

(** True saturation: the run reached a fixpoint rather than a budget. *)
let stopped_saturated = function Saturated -> true | _ -> false

(** Did the run stop on a resource budget (as opposed to saturating or
    faulting)? *)
let stopped_on_limit = function
  | Iteration_limit | Node_limit | Timeout | Memory_limit -> true
  | Saturated | Fault _ -> false

type run_stats = {
  mutable iterations : int;
  mutable matches : int;  (** total rule matches applied *)
  mutable sat_time : float;  (** seconds spent in [(run n)] *)
  mutable search_time : float;  (** seconds in rule search (e-matching) *)
  mutable apply_time : float;  (** seconds applying rule actions *)
  mutable rebuild_time : float;
      (** seconds restoring congruence (the deferred rebuild batches) *)
  mutable stop : stop_reason;
  mutable peak_nodes : int;  (** largest e-graph size seen during the run *)
}

type output =
  | O_extracted of Extract.term * int  (** term and its cost *)
  | O_variants of (Extract.term * int) list  (** cheapest-first variants *)
  | O_checked
  | O_ran of run_stats
  | O_msg of string

(** An anytime checkpoint: the best extraction of the checkpoint root seen
    so far, recorded periodically during saturation so that a limit or a
    fault still yields a result. *)
type checkpoint = { ck_term : Extract.term; ck_cost : int; ck_iteration : int }

(** A rule as registered: its own name (if any), premises, actions and
    ruleset.  Registering an equal rule again is a no-op. *)
type rule_key = string option * Ast.fact list * Ast.action list * string option

type t = {
  mutable eg : Egraph.t;
  mutable globals : (string, Value.t) Hashtbl.t;
  mutable rules_rev : rule list;  (** newest registration first *)
  mutable rule_keys : (rule_key, unit) Hashtbl.t;  (** the rules in [rules_rev] *)
  mutable rulesets : string list;  (** declared ruleset names *)
  mutable rule_counter : int;
  mutable limits : Limits.t;  (** resource budgets for saturation *)
  mutable last_stats : run_stats option;
  mutable outputs : output list;  (** reverse order *)
  mutable snapshots : snapshot list;  (** push/pop stack *)
  mutable disable_dirty_skip : bool;
      (** testing/ablation: always rescan every rule *)
  mutable naive_matching : bool;
      (** search every due rule in full ([since = -1]) instead of
          seminaive deltas *)
  mutable backoff : bool;  (** enable the backoff rule scheduler *)
  mutable match_limit : int;  (** scheduler: base per-rule match budget *)
  mutable ban_length : int;  (** scheduler: base ban duration (iterations) *)
  mutable iter_counter : int;
      (** absolute iteration count across all [(run)]s — the scheduler's
          time base for bans *)
  mutable idx : Matcher.index option;
      (** cached persistent matcher index; invalidated when [eg] is
          replaced (pop) *)
  mutable ck_root : Value.t option;
      (** value whose best extraction the anytime checkpoints track *)
  mutable ck_every : int;
      (** checkpoint every n successful iterations (0 = only on demand) *)
  mutable best_ck : checkpoint option;
  costs_applied : (int array, int) Hashtbl.t;
      (** arena fast path: cheapest cost already applied per canonical
          [sym id :: key codes] — dedupes the re-derived [unstable-cost]
          actions seminaive matching keeps producing.  A stale (merged)
          key never matches a freshly canonicalized probe, so hits are
          always sound skips.  Cleared on [pop]. *)
}

and snapshot = {
  s_eg : Egraph.t;
  s_globals : (string, Value.t) Hashtbl.t;
  s_rules_rev : rule list;
  s_rule_keys : (rule_key, unit) Hashtbl.t;
  s_rulesets : string list;
}

let create ?(max_nodes = 200_000) ?timeout ?limits ?engine:(_ : Egraph.engine option)
    ?jobs:(_ : int option) () =
  let limits =
    match limits with
    | Some l -> l
    | None ->
      Limits.make ~max_nodes
        ?max_time_ms:(Option.map (fun s -> s *. 1000.) timeout)
        ()
  in
  {
    eg = Egraph.create ();
    globals = Hashtbl.create 64;
    rules_rev = [];
    rule_keys = Hashtbl.create 64;
    rulesets = [];
    rule_counter = 0;
    limits;
    last_stats = None;
    outputs = [];
    snapshots = [];
    disable_dirty_skip = false;
    naive_matching = false;
    backoff = true;
    match_limit = 1000;
    ban_length = 5;
    iter_counter = 0;
    idx = None;
    ck_root = None;
    ck_every = 0;
    best_ck = None;
    costs_applied = Hashtbl.create 256;
  }

let set_disable_dirty_skip t b = t.disable_dirty_skip <- b
let set_limits t l = t.limits <- l
let limits t = t.limits
let set_naive_matching t b = t.naive_matching <- b
let set_backoff t b = t.backoff <- b
let set_match_limit t n = t.match_limit <- n
let set_ban_length t n = t.ban_length <- n
let egraph t = t.eg
let globals t = t.globals

(** The persistent matcher index for the current e-graph (created lazily,
    reused across iterations and runs). *)
let get_index t =
  match t.idx with
  | Some idx -> idx
  | None ->
    let idx = Matcher.make_index t.eg t.globals in
    t.idx <- Some idx;
    idx

(* the registered rules satisfying [p], in registration order *)
let filter_rules t p = List.fold_left (fun acc r -> if p r then r :: acc else acc) [] t.rules_rev

let all_rules t = List.rev t.rules_rev

let rule_stats t : rule_stat list =
  List.map
    (fun r ->
      {
        rs_name = r.r_name;
        rs_ruleset = r.r_ruleset;
        rs_searches = r.r_n_searches;
        rs_matches = r.r_n_matches;
        rs_applied = r.r_n_applied;
        rs_bans = r.r_n_bans;
        rs_search_time = r.r_search_time;
        rs_apply_time = r.r_apply_time;
      })
    (all_rules t)

(** Value of global let-binding [x]. *)
let global t x =
  match Hashtbl.find_opt t.globals x with
  | Some v -> v
  | None -> error "unknown global %s" x

let global_opt t x = Hashtbl.find_opt t.globals x

(* ------------------------------------------------------------------ *)
(* Expression evaluation in action position (may create e-nodes)       *)
(* ------------------------------------------------------------------ *)

(* A primitive call.  Inside an [unstable-cost] expression ([cost] is the
   costed function) i64 [+], [-] and [*] are checked: a product that
   wrapped past 2^63 could come back as a small positive cost. *)
let apply_prim ?(cost : Egraph.func option) f vals =
  match cost with
  | None -> (
    try Primitives.apply f vals with Primitives.Error msg -> error "primitive error: %s" msg)
  | Some fn -> (
    try Primitives.apply_checked f vals with
    | Primitives.Error msg -> error "primitive error: %s" msg
    | Primitives.Overflow ->
      error "cost-overflow: the unstable-cost of (%s ...) overflows i64 at %s"
        (Symbol.name fn.Egraph.sym) f)

(* The int cost of an evaluated [unstable-cost] of [fn], range-checked
   instead of truncated by [Int64.to_int]. *)
let cost_of_value (fn : Egraph.func) (v : Value.t) =
  match v with
  | I64 n
    when Int64.compare n (Int64.of_int min_int) >= 0
         && Int64.compare n (Int64.of_int max_int) <= 0 ->
    Int64.to_int n
  | I64 n ->
    error "cost-overflow: the unstable-cost of (%s ...) is %Ld, out of range"
      (Symbol.name fn.Egraph.sym) n
  | v -> error "unstable-cost expects an i64 cost, got %a" Value.pp v

let rec eval t (env : Matcher.env) (e : Ast.expr) : Value.t =
  match e with
  | Var x -> (
    match Matcher.Env.find_opt x env with
    | Some v -> v
    | None -> (
      match Hashtbl.find_opt t.globals x with
      | Some v -> v
      | None -> error "unbound name %s" x))
  | Wildcard -> error "wildcard in expression position"
  | Lit l -> Matcher.value_of_lit l
  | Call (f, args) ->
    let vals = List.map (eval t env) args in
    if Primitives.is_primitive f then apply_prim f vals
    else begin
      let fn = Egraph.find_func t.eg (Symbol.intern f) in
      match Egraph.apply t.eg fn (Array.of_list vals) with
      | Some v -> v
      | None ->
        error "(%s ...) has no defined output (use set before reading it)" f
    end

(* an [unstable-cost] expression of [fn]: its primitive calls are checked *)
let rec eval_cost t env fn (e : Ast.expr) : Value.t =
  match e with
  | Call (f, args) when Primitives.is_primitive f ->
    apply_prim ~cost:fn f (List.map (eval_cost t env fn) args)
  | e -> eval t env e

(* ------------------------------------------------------------------ *)
(* Actions                                                             *)
(* ------------------------------------------------------------------ *)

let rec run_action t (env : Matcher.env) (a : Ast.action) : Matcher.env =
  match a with
  | A_let (x, e) ->
    let v = eval t env e in
    Matcher.Env.add x v env
  | A_union (a, b) ->
    let va = eval t env a and vb = eval t env b in
    Egraph.union_values t.eg va vb;
    env
  | A_set (Call (f, args), rhs) ->
    let fn = Egraph.find_func t.eg (Symbol.intern f) in
    let vals = List.map (eval t env) args in
    let out = eval t env rhs in
    Egraph.set t.eg fn (Array.of_list vals) out;
    env
  | A_set (e, _) -> error "set expects a function application, got %a" Ast.pp_expr e
  | A_expr e ->
    ignore (eval t env e);
    env
  | A_cost (Call (f, args), c) ->
    let fn = Egraph.find_func t.eg (Symbol.intern f) in
    let vals = List.map (eval t env) args in
    (* make sure the e-node exists, then attach the cost override *)
    ignore (Egraph.apply t.eg fn (Array.of_list vals));
    let cost = cost_of_value fn (eval_cost t env fn c) in
    Egraph.set_cost t.eg fn (Array.of_list vals) cost;
    env
  | A_cost (e, _) -> error "unstable-cost expects an e-node application, got %a" Ast.pp_expr e
  | A_delete (Call (f, args)) ->
    let fn = Egraph.find_func t.eg (Symbol.intern f) in
    let vals = List.map (eval t env) args in
    Egraph.delete t.eg fn (Array.of_list vals);
    env
  | A_delete e -> error "delete expects a function application, got %a" Ast.pp_expr e
  | A_panic msg -> error "panic: %s" msg

and run_actions t env actions = ignore (List.fold_left (run_action t) env actions)

(* ------------------------------------------------------------------ *)
(* Slot-compiled actions (packed apply path)                           *)
(* ------------------------------------------------------------------ *)

exception Bail

(** Compile [actions] against the packed-row slot layout [names] /
    [slot_sorts] (one slot per emitted pattern variable, in row order).
    [let]s get fresh slots after the emitted ones — shadowing an emitted
    name reuses its slot, which is safe because each match is applied on
    a freshly blitted scratch row.  Names bound by neither compile to
    global references resolved at apply time, exactly like the env
    interpreter's fallback.  Sorts are tracked during compilation:
    a static argument-sort mismatch bails to the env interpreter (which
    reports the proper error at apply time), and only positions whose
    sort cannot be known statically get a runtime [K_check].  [None]
    when an action shape needs the env interpreter (wildcards,
    [set]/[delete]/[cost] on non-applications, primitive literals the
    pool cannot host). *)
let compile_actions eg (names : string array)
    (slot_sorts : Egraph.sort_kind array) (actions : Ast.action list) :
    capply option =
  let pool = Egraph.pool eg in
  let slots : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace slots x i) names;
  let next = ref (Array.length names) in
  (* static sort of each slot; [None] for a let bound to a value of
     unknown sort *)
  let let_sorts : (int, Egraph.sort_kind option) Hashtbl.t = Hashtbl.create 8 in
  let slot_sort i =
    if i < Array.length slot_sorts then Some slot_sorts.(i)
    else Option.join (Hashtbl.find_opt let_sorts i)
  in
  (* a table must already be declared when the rule first fires, so
     resolve it once here; an unknown name bails to the env interpreter
     (which reports the same error at apply time) *)
  let func f =
    match Egraph.find_func_opt eg (Symbol.intern f) with
    | Some fn -> fn
    | None -> raise Bail
  in
  let lit_sort : Value.t -> Egraph.sort_kind = function
    | Value.I64 _ -> Egraph.S_i64
    | Value.F64 _ -> Egraph.S_f64
    | Value.Str _ -> Egraph.S_string
    | Value.Bool _ -> Egraph.S_bool
    | Value.Unit -> Egraph.S_unit
    | Value.Vec _ | Value.Eclass _ -> raise Bail  (* not literal shapes *)
  in
  let rec cexpr (e : Ast.expr) : cval * Egraph.sort_kind option =
    match e with
    | Var x -> (
      match Hashtbl.find_opt slots x with
      | Some i -> (K_slot i, slot_sort i)
      | None -> (K_global x, None))
    | Wildcard -> raise Bail
    | Lit l ->
      let v = Matcher.value_of_lit l in
      (K_const (Arena.encode pool v), Some (lit_sort v))
    | Call (f, args) ->
      if Primitives.is_primitive f then
        (K_prim (f, Array.of_list (List.map (fun a -> fst (cexpr a)) args)), None)
      else
        let fn = func f in
        (K_table (fn, cargs fn args, Array.make (Array.length fn.Egraph.arg_sorts) 0),
         Some fn.Egraph.ret_sort)
  and coerce (expected : Egraph.sort_kind) (e : Ast.expr) : cval =
    let cv, so = cexpr e in
    match so with
    | Some s -> if s = expected then cv else raise Bail
    | None -> K_check (expected, cv)
  and cargs (fn : Egraph.func) (args : Ast.expr list) : cval array =
    let sorts = fn.Egraph.arg_sorts in
    if List.length args <> Array.length sorts then raise Bail;
    Array.of_list (List.mapi (fun i a -> coerce sorts.(i) a) args)
  in
  let capp f args =
    if Primitives.is_primitive f then raise Bail
    else
      let fn = func f in
      (fn, cargs fn args, Array.make (Array.length fn.Egraph.arg_sorts) 0)
  in
  let cact (a : Ast.action) : caction =
    match a with
    | A_let (x, e) ->
      let cv, so = cexpr e in
      (* bind after compiling the rhs, so the rhs sees the outer [x] *)
      let slot =
        match Hashtbl.find_opt slots x with
        | Some i -> i
        | None ->
          let i = !next in
          incr next;
          Hashtbl.replace slots x i;
          i
      in
      Hashtbl.replace let_sorts slot so;
      KA_let (slot, cv)
    | A_union (a, b) -> KA_union (fst (cexpr a), fst (cexpr b))
    | A_set (Call (f, args), rhs) ->
      let fn, cargs, key = capp f args in
      KA_set (fn, cargs, key, coerce fn.Egraph.ret_sort rhs)
    | A_expr e -> KA_expr (fst (cexpr e))
    | A_cost (Call (f, args), c) ->
      let fn, cargs, key = capp f args in
      KA_cost (fn, cargs, key, fst (cexpr c))
    | A_delete (Call (f, args)) ->
      let fn, cargs, key = capp f args in
      KA_delete (fn, cargs, key)
    | A_panic msg -> KA_panic msg
    | A_set _ | A_cost _ | A_delete _ -> raise Bail
  in
  match List.map cact actions with
  | acts -> Some { ca_acts = Array.of_list acts; ca_slots = !next }
  | exception Bail -> None

let rec ceval t (vals : int array) (cv : cval) : int =
  match cv with
  | K_slot i -> Array.unsafe_get vals i
  | K_const c -> c
  | K_global x -> (
    match Hashtbl.find_opt t.globals x with
    | Some v -> Arena.encode (Egraph.pool t.eg) v
    | None -> error "unbound name %s" x)
  | K_prim _ ->
    (* single pool round-trip at the code boundary; nested prims stay
       value-level inside [ceval_value] *)
    Arena.encode (Egraph.pool t.eg) (ceval_value t vals cv)
  | K_table (fn, args, key) -> (
    for i = 0 to Array.length args - 1 do
      key.(i) <- ceval t vals (Array.unsafe_get args i)
    done;
    (* [key] is per-[K_table]-node scratch: distinct nodes have distinct
       arrays, a child's evaluation never touches its parent's, and apply
       is sequential, so in-place reuse is safe *)
    match Egraph.apply_codes t.eg fn key with
    | -1 ->
      error "(%s ...) has no defined output (use set before reading it)"
        (Symbol.name fn.Egraph.sym)
    | c -> c)
  | K_check (k, cv) ->
    let c = ceval t vals cv in
    if Egraph.code_matches_sort t.eg k c then c
    else
      error "value %a does not inhabit sort %a" Value.pp
        (Arena.decode (Egraph.pool t.eg) c)
        Egraph.pp_sort_kind k

(* evaluate in value space; prim trees never touch the pool hash table.
   [cost] marks an [unstable-cost] expression (see {!apply_prim}) *)
and ceval_value ?cost t (vals : int array) (cv : cval) : Value.t =
  match cv with
  | K_prim (f, args) ->
    let rec loop i acc =
      if i < 0 then acc else loop (i - 1) (ceval_value ?cost t vals args.(i) :: acc)
    in
    apply_prim ?cost f (loop (Array.length args - 1) [])
  | K_global x -> (
    match Hashtbl.find_opt t.globals x with
    | Some v -> v
    | None -> error "unbound name %s" x)
  | _ -> Arena.decode (Egraph.pool t.eg) (ceval t vals cv)

(* each arm sequences sub-evaluations with [let] to keep the env
   interpreter's left-to-right effect order (e-node creation) *)
let run_caction t (vals : int array) (a : caction) : unit =
  match a with
  | KA_let (slot, cv) -> vals.(slot) <- ceval t vals cv
  | KA_union (a, b) ->
    let ca = ceval t vals a in
    let cb = ceval t vals b in
    Egraph.union_codes t.eg ca cb
  | KA_set (fn, args, key, rhs) ->
    for i = 0 to Array.length args - 1 do
      key.(i) <- ceval t vals args.(i)
    done;
    let out = ceval t vals rhs in
    Egraph.set_codes t.eg fn key out
  | KA_expr cv -> ignore (ceval t vals cv)
  | KA_cost (fn, args, key, c) ->
    for i = 0 to Array.length args - 1 do
      key.(i) <- ceval t vals args.(i)
    done;
    (* mirror the env interpreter: reading the node creates it *)
    let out = Egraph.apply_codes t.eg fn key in
    if out = -1 then
      error "(%s ...) has no defined output (use set before reading it)"
        (Symbol.name fn.Egraph.sym);
    let cost = cost_of_value fn (ceval_value ~cost:fn t vals c) in
    let n = Array.length key in
    let ck = Array.make (n + 1) (Symbol.id fn.Egraph.sym) in
    Array.blit key 0 ck 1 n;
    (match Hashtbl.find_opt t.costs_applied ck with
    | Some c0 when c0 <= cost -> ()  (* set_cost would keep the cheaper *)
    | _ ->
      (* recorded only once applied: a rejected (negative) cost must be
         rejected again when the rule re-fires *)
      Egraph.set_cost_codes t.eg fn key out cost;
      Hashtbl.replace t.costs_applied ck cost)
  | KA_delete (fn, args, key) ->
    let pool = Egraph.pool t.eg in
    for i = 0 to Array.length args - 1 do
      key.(i) <- ceval t vals args.(i)
    done;
    Egraph.delete t.eg fn (Array.map (Arena.decode pool) key)
  | KA_panic msg -> error "panic: %s" msg

(** One rule's matches from a search, in the applier's native shape. *)
type matches =
  | M_envs of Matcher.env list
  | M_packed of capply * Matcher.packed

let n_found = function
  | M_envs l -> List.length l
  | M_packed (_, pk) -> pk.Matcher.pk_rows

(* ------------------------------------------------------------------ *)
(* Anytime checkpoints                                                 *)
(* ------------------------------------------------------------------ *)

(** Extract the checkpoint root from the current e-graph and keep the
    result if it beats the best seen so far.  Never raises: a checkpoint
    attempt that fails (e.g. the root class has no finite-cost term yet,
    or the graph is mid-fault) simply records nothing — the previous best
    survives. *)
let take_checkpoint t =
  match t.ck_root with
  | None -> ()
  | Some root -> (
    try
      Egraph.rebuild t.eg;
      let term, cost = Extract.extract t.eg root in
      match t.best_ck with
      | Some ck when ck.ck_cost <= cost -> ()
      | _ ->
        t.best_ck <- Some { ck_term = term; ck_cost = cost; ck_iteration = t.iter_counter }
    with _ -> ())

(** Track [root]'s best extraction with a checkpoint every [every]
    successful iterations (and once immediately, so a crash on iteration 1
    still has the input program to fall back to). *)
let set_checkpoint_root ?(every = 4) t root =
  t.ck_root <- Some root;
  t.ck_every <- max 0 every;
  t.best_ck <- None;
  take_checkpoint t

let best_checkpoint t = t.best_ck

(* ------------------------------------------------------------------ *)
(* Saturation                                                          *)
(* ------------------------------------------------------------------ *)

(** Is [r] due for a rescan?  A rule can only gain new matches after one of
    its referenced tables changes. *)
let rule_dirty t r =
  t.disable_dirty_skip || r.r_last_scan < 0
  || List.exists
       (fun sym ->
         match Egraph.find_func_opt t.eg sym with
         | Some f -> f.Egraph.last_modified > r.r_last_scan
         | None -> true)
       r.r_refs

(** Run one saturation iteration: search every due rule (seminaive deltas by
    default), then apply all matches in a second phase, then rebuild.
    Returns [(matches_applied, ban_skipped)] — [ban_skipped] is true when
    the backoff scheduler banned a rule or skipped a banned one, in which
    case a quiescent clock does {e not} mean saturation. *)
(* every variable name a rule's actions mention: the matcher only needs to
   decode these (plus residual-fact vars) into result environments *)
let action_vars (actions : Ast.action list) : string list =
  let acc = ref [] in
  let rec expr = function
    | Ast.Var x -> acc := x :: !acc
    | Ast.Call (_, args) -> List.iter expr args
    | Ast.Wildcard | Ast.Lit _ -> ()
  in
  List.iter
    (function
      | Ast.A_let (_, e) | Ast.A_expr e | Ast.A_delete e -> expr e
      | Ast.A_union (e1, e2) | Ast.A_set (e1, e2) | Ast.A_cost (e1, e2) ->
        expr e1;
        expr e2
      | Ast.A_panic _ -> ())
    actions;
  !acc

(* the generic-join plan of [r], flattened and compiled on first use *)
let gplan_of idx r =
  match r.r_gplan with
  | Some gp -> gp
  | None ->
    let gp =
      Matcher.gcompile ~keep:(action_vars r.r_actions) idx (Matcher.compile r.r_facts)
    in
    r.r_gplan <- Some gp;
    gp

(* Can [r]'s search be settled as "no matches" without compiling it?
   Only where compiling would succeed and the join would find nothing:
   every table the premises call is declared with the arity of the call,
   no premise variable can name a global (so compiling later sees the
   same plan as compiling now), and one of the tables has no live row —
   every match needs a row of each.  The graph is rebuilt, hence
   compacted, when this is asked. *)
let idle t r =
  (not r.r_bare)
  && List.for_all
       (fun (sym, n) ->
         match Egraph.find_func_opt t.eg sym with
         | Some f -> Array.length f.Egraph.arg_sorts = n
         | None -> false)
       r.r_calls
  && List.exists
       (fun sym -> Arena.n_live (Egraph.find_func t.eg sym).Egraph.store = 0)
       r.r_refs

(* has a global the premises name changed class since the last scan?  Old
   rows can match it now, so the rule is due even if its tables are not *)
let pins_moved idx r =
  match r.r_gplan with Some gp -> Matcher.pins idx gp <> r.r_pins | None -> false

(* how a due rule searches *)
type search =
  | Idle  (* {!idle}: no matches, and nothing compiled *)
  | Join of {
      gplan : Matcher.gplan;
      packed : capply option;  (* [Some] = packed matches, compiled applier *)
      since : int;
    }

(* one due rule, ready to search *)
type prepared = { s_rule : rule; s_search : search; s_pins : int array }

let run_iteration ?ruleset t (stats : run_stats) : int * bool =
  (* cheap when the previous iteration left the graph clean: rebuild is a
     no-op unless unions are pending (the e-graph's dirty flag) *)
  let timed_rebuild () =
    let t0 = Unix.gettimeofday () in
    Egraph.rebuild t.eg;
    stats.rebuild_time <- stats.rebuild_time +. (Unix.gettimeofday () -. t0)
  in
  timed_rebuild ();
  let scan_clock = Egraph.clock t.eg in
  let idx = get_index t in
  t.iter_counter <- t.iter_counter + 1;
  let iter = t.iter_counter in
  let ban_skipped = ref false in
  (* which rules are due this iteration *)
  let due =
    filter_rules t (fun r ->
        if r.r_ruleset <> ruleset then false
        else if t.backoff && iter < r.r_banned_until then begin
          (* banned: no search; r_last_scan stays put, so the delta it will
             eventually scan still covers everything it missed *)
          ban_skipped := true;
          false
        end
        else rule_dirty t r || pins_moved idx r)
  in
  (* resolve each rule's search up front (compiling generic-join plans
     and packed appliers on first use), so the search timers measure the
     joins alone.  An idle rule compiles nothing: it is compiled at the
     first search that can find something. *)
  let prepare r =
    if Option.is_none r.r_gplan && idle t r then { s_rule = r; s_search = Idle; s_pins = [||] }
    else
      let gp = gplan_of idx r in
      let pins = Matcher.pins idx gp in
      (* naive matching, and a rule whose globals' classes merged since its
         last scan, search in full *)
      let since = if t.naive_matching || pins <> r.r_pins then -1 else r.r_last_scan in
      let packed =
        if not (Matcher.gp_packed_ok gp) then None
        else
          match r.r_capply with
          | Some ca -> ca
          | None ->
            let ca =
              compile_actions t.eg (Matcher.gp_slot_names gp)
                (Matcher.gp_slot_sorts idx gp) r.r_actions
            in
            r.r_capply <- Some ca;
            ca
      in
      { s_rule = r; s_search = Join { gplan = gp; packed; since }; s_pins = pins }
  in
  let prepared = List.map prepare due in
  let search s =
    match s.s_search with
    | Idle -> (M_envs [], 0.)
    | Join { gplan; packed; since } ->
      let t0 = Unix.gettimeofday () in
      let ms =
        match packed with
        | Some ca -> M_packed (ca, Matcher.gsolve_packed idx gplan ~since)
        | None -> M_envs (Matcher.gsolve idx gplan ~since)
      in
      (ms, Unix.gettimeofday () -. t0)
  in
  (* search phase: every due rule matches against the same snapshot
     before any match is applied *)
  let searched = List.map (fun s -> (s, search s)) prepared in
  (* bookkeeping in registration order: budgets, bans, scan horizons *)
  let batches =
    List.filter_map
      (fun (s, (ms, dt)) ->
        let r = s.s_rule in
        r.r_n_searches <- r.r_n_searches + 1;
        r.r_search_time <- r.r_search_time +. dt;
        stats.search_time <- stats.search_time +. dt;
        let n = n_found ms in
        r.r_n_matches <- r.r_n_matches + n;
        let threshold = t.match_limit lsl r.r_times_banned in
        if t.backoff && n > threshold then begin
          (* over budget: discard the matches and ban the rule; both the
             budget and the ban double with each offence *)
          let ban_len = t.ban_length lsl r.r_times_banned in
          r.r_times_banned <- r.r_times_banned + 1;
          r.r_banned_until <- iter + 1 + ban_len;
          r.r_n_bans <- r.r_n_bans + 1;
          ban_skipped := true;
          None
        end
        else begin
          r.r_last_scan <- scan_clock;
          r.r_pins <- s.s_pins;
          Some (r, ms)
        end)
      searched
  in
  (* apply phase *)
  let n =
    List.fold_left
      (fun acc (r, ms) ->
        let t0 = Unix.gettimeofday () in
        let k =
          match ms with
          | M_envs envs ->
            List.iter (fun env -> run_actions t env r.r_actions) envs;
            List.length envs
          | M_packed (ca, pk) ->
            (* each match applies on a scratch row blitted from the packed
               search buffer; let slots beyond the blit are always written
               before any read (reads before the let compile to globals) *)
            let scratch = Array.make (max 1 ca.ca_slots) 0 in
            let w = pk.Matcher.pk_width in
            for i = 0 to pk.Matcher.pk_rows - 1 do
              Array.blit pk.Matcher.pk_buf (i * w) scratch 0 w;
              Array.iter (run_caction t scratch) ca.ca_acts
            done;
            pk.Matcher.pk_rows
        in
        let dt = Unix.gettimeofday () -. t0 in
        r.r_n_applied <- r.r_n_applied + k;
        r.r_apply_time <- r.r_apply_time +. dt;
        stats.apply_time <- stats.apply_time +. dt;
        acc + k)
      0 batches
  in
  timed_rebuild ();
  (n, !ban_skipped)

(** Render a captured saturation exception as a structured diagnostic. *)
let diag_of_exn (e : exn) : Diag.t =
  let msg =
    match e with
    | Error m -> m
    | Egraph.Error m -> "e-graph: " ^ m
    | Matcher.Error m -> "match: " ^ m
    | Primitives.Error m -> "primitive: " ^ m
    | Extract.Error m -> "extraction: " ^ m
    | Failure m -> m
    | Stack_overflow -> "stack overflow"
    | e -> Printexc.to_string e
  in
  Diag.error "saturation-fault" "%s" msg

(** [run t n] saturates: repeats {!run_iteration} until the e-graph stops
    changing, or [n] iterations, or any {!Limits} budget (nodes, wall
    clock, memory) is exhausted.  An exception escaping a rule stops the
    run with [Fault] instead of propagating: the e-graph is rebuilt to a
    canonical state and remains extractable.  With [?ruleset], only rules
    registered in that ruleset run. *)
let run ?ruleset t n : run_stats =
  let stats =
    {
      iterations = 0;
      matches = 0;
      sat_time = 0.;
      search_time = 0.;
      apply_time = 0.;
      rebuild_time = 0.;
      stop = Saturated;
      peak_nodes = Egraph.n_nodes t.eg;
    }
  in
  let watch = Limits.start () in
  (* [n] is this call's iteration budget; the engine-wide budget, if any,
     also applies *)
  let eff_limits =
    let open Limits in
    {
      t.limits with
      max_iters =
        Some (match t.limits.max_iters with Some m -> min m n | None -> n);
    }
  in
  let gauge () =
    {
      Limits.g_iters = stats.iterations;
      g_nodes = Egraph.n_nodes t.eg;
      g_memory_words = Egraph.approx_memory_words t.eg;
      g_elapsed_ms = Limits.elapsed_ms watch;
    }
  in
  let t0 = Unix.gettimeofday () in
  (try
     let continue = ref true in
     while !continue do
       match Limits.check eff_limits (gauge ()) with
       | Some hit ->
         stats.stop <-
           (match hit with
           | Limits.L_iterations -> Iteration_limit
           | Limits.L_nodes -> Node_limit
           | Limits.L_time -> Timeout
           | Limits.L_memory -> Memory_limit);
         continue := false
       | None -> (
         let before = Egraph.clock t.eg in
         match run_iteration ?ruleset t stats with
         | exception Sys.Break -> raise Sys.Break
         | exception e ->
           (* fault isolation: canonicalize what we have and stop; the
              e-graph still holds every term found before the fault *)
           (try Egraph.rebuild t.eg with _ -> ());
           stats.stop <- Fault (diag_of_exn e);
           continue := false
         | m, ban_skipped ->
           stats.iterations <- stats.iterations + 1;
           stats.matches <- stats.matches + m;
           stats.peak_nodes <- max stats.peak_nodes (Egraph.n_nodes t.eg);
           if t.ck_every > 0 && stats.iterations mod t.ck_every = 0 then
             take_checkpoint t;
           if Egraph.clock t.eg = before then
             if not ban_skipped then begin
               (* every due rule searched and nothing changed: true fixpoint *)
               stats.stop <- Saturated;
               continue := false
             end
             else begin
               (* stalled but rules are banned: fast-forward the ban clocks so
                  the earliest ban expires next iteration (egg's can_stop);
                  budgets have doubled, so this terminates *)
               let next_iter = t.iter_counter + 1 in
               let banned =
                 filter_rules t (fun r ->
                     r.r_ruleset = ruleset && next_iter < r.r_banned_until)
               in
               match banned with
               | [] -> ()  (* a ban expires next iteration by itself *)
               | _ ->
                 let min_until =
                   List.fold_left (fun m r -> min m r.r_banned_until) max_int banned
                 in
                 let delta = min_until - next_iter in
                 List.iter
                   (fun r -> r.r_banned_until <- r.r_banned_until - delta)
                   banned
             end)
     done
   with e ->
     stats.sat_time <- Unix.gettimeofday () -. t0;
     t.last_stats <- Some stats;
     raise e);
  (* a final checkpoint so the best-so-far term reflects the whole run,
     whatever stopped it *)
  take_checkpoint t;
  stats.peak_nodes <- max stats.peak_nodes (Egraph.n_nodes t.eg);
  stats.sat_time <- Unix.gettimeofday () -. t0;
  t.last_stats <- Some stats;
  stats

(* ------------------------------------------------------------------ *)
(* Command execution                                                   *)
(* ------------------------------------------------------------------ *)

let make_merge_fn (e : Ast.expr) : Value.t -> Value.t -> Value.t =
  let rec ev env (e : Ast.expr) : Value.t =
    match e with
    | Var "old" -> fst env
    | Var "new" -> snd env
    | Lit l -> Matcher.value_of_lit l
    | Call (f, args) when Primitives.is_primitive f ->
      Primitives.apply f (List.map (ev env) args)
    | _ -> error "unsupported :merge expression %a" Ast.pp_expr e
  in
  fun old_v new_v -> ev (old_v, new_v) e

let declare_function t (d : Ast.func_decl) =
  ignore
    (Egraph.declare_function t.eg ~name:d.f_name ~args:d.f_args ~ret:d.f_ret
       ~cost:d.f_cost
       ~merge:(Option.map make_merge_fn d.f_merge)
       ~unextractable:d.f_unextractable)

(* What a rule's premises read: the function tables (a rule can only
   gain new matches after one of these changes: insert, output change,
   delete, or canonicalization after a union), each table call with its
   argument count, and whether some variable is a bare name. *)
let premise_reads (facts : Ast.fact list) =
  let refs = ref [] and calls = ref [] and bare = ref false in
  let rec go_expr (e : Ast.expr) =
    match e with
    | Call (f, args) ->
      if not (Primitives.is_primitive f) then begin
        let sym = Symbol.intern f in
        if not (List.exists (Symbol.equal sym) !refs) then refs := sym :: !refs;
        let n = List.length args in
        if not (List.exists (fun (s, m) -> Symbol.equal s sym && m = n) !calls) then
          calls := (sym, n) :: !calls
      end;
      List.iter go_expr args
    | Var x -> if not (Matcher.is_pattern_var x) then bare := true
    | Wildcard | Lit _ -> ()
  in
  List.iter
    (function Ast.F_eq es -> List.iter go_expr es | Ast.F_expr e -> go_expr e)
    facts;
  (!refs, !calls, !bare)

let check_ruleset t = function
  | None -> ()
  | Some rs -> if not (List.mem rs t.rulesets) then error "unknown ruleset %s" rs

(* Registration is O(1) in the number of rules, and compiles nothing: a
   rule is compiled at its first search that can find something
   ({!idle}).  An identical rule registered again is a no-op and takes no
   [rule-N] number. *)
let add_rule t ?name ?ruleset facts actions =
  check_ruleset t ruleset;
  let key = (name, facts, actions, ruleset) in
  if not (Hashtbl.mem t.rule_keys key) then begin
    t.rule_counter <- t.rule_counter + 1;
    let r_name =
      match name with Some n -> n | None -> Printf.sprintf "rule-%d" t.rule_counter
    in
    let refs, calls, bare = premise_reads facts in
    Hashtbl.replace t.rule_keys key ();
    t.rules_rev <-
      {
        r_name;
        r_facts = facts;
        r_actions = actions;
        r_ruleset = ruleset;
        r_refs = refs;
        r_calls = calls;
        r_bare = bare;
        r_gplan = None;
        r_capply = None;
        r_last_scan = -1;
        r_pins = [||];
        r_times_banned = 0;
        r_banned_until = 0;
        r_n_searches = 0;
        r_n_matches = 0;
        r_n_applied = 0;
        r_n_bans = 0;
        r_search_time = 0.;
        r_apply_time = 0.;
      }
      :: t.rules_rev
  end

(** Desugar [(rewrite lhs rhs :when conds)] into a rule. *)
let add_rewrite t ?ruleset ~(lhs : Ast.expr) ~(rhs : Ast.expr) ~(conds : Ast.fact list) () =
  let root = "?__rewrite_root" in
  add_rule t ?ruleset
    (Ast.F_eq [ Var root; lhs ] :: conds)
    [ Ast.A_union (Var root, rhs) ]

let emit t o = t.outputs <- o :: t.outputs

(** Every binding of [facts]' own variables in the current e-graph,
    through the full join. *)
let query t facts =
  Egraph.rebuild t.eg;
  Matcher.query (get_index t) facts

(** Each rule's name and premises, in registration order. *)
let premises t = List.map (fun r -> (r.r_name, r.r_facts)) (all_rules t)

let run_command t (c : Ast.command) : unit =
  match c with
  | C_sort (name, None) -> Egraph.declare_sort t.eg name
  | C_sort (name, Some ("Vec", [ elem ])) -> Egraph.declare_vec_sort t.eg name elem
  | C_sort (_, Some (container, _)) -> error "unsupported container sort %s" container
  | C_datatype (name, variants) ->
    Egraph.declare_sort t.eg name;
    List.iter
      (fun (v : Ast.variant) ->
        declare_function t
          {
            f_name = v.v_name;
            f_args = v.v_args;
            f_ret = name;
            f_cost = v.v_cost;
            f_merge = None;
            f_unextractable = false;
          })
      variants
  | C_function d ->
    if not (Egraph.sort_declared t.eg d.f_ret) then
      error "function %s: unknown return sort %s" d.f_name d.f_ret;
    declare_function t d
  | C_relation (name, args) ->
    declare_function t
      {
        f_name = name;
        f_args = args;
        f_ret = "Unit";
        f_cost = None;
        f_merge = None;
        f_unextractable = false;
      }
  | C_let (x, e) ->
    if Hashtbl.mem t.globals x then error "global %s already defined" x;
    let v = eval t Matcher.Env.empty e in
    Hashtbl.replace t.globals x v
  | C_ruleset name ->
    if List.mem name t.rulesets then error "ruleset %s already declared" name;
    t.rulesets <- t.rulesets @ [ name ]
  | C_rewrite { lhs; rhs; conds; bidirectional; ruleset } ->
    check_ruleset t ruleset;
    add_rewrite t ?ruleset ~lhs ~rhs ~conds ();
    if bidirectional then add_rewrite t ?ruleset ~lhs:rhs ~rhs:lhs ~conds ()
  | C_rule { name; facts; actions; ruleset } -> add_rule t ?name ?ruleset facts actions
  | C_action a ->
    ignore (run_action t Matcher.Env.empty a);
    Egraph.rebuild t.eg
  | C_run (n, ruleset) ->
    check_ruleset t ruleset;
    let stats = run ?ruleset t n in
    emit t (O_ran stats)
  | C_extract (e, n) ->
    let v = eval t Matcher.Env.empty e in
    Egraph.rebuild t.eg;
    if n <= 1 then begin
      let term, cost = Extract.extract t.eg v in
      emit t (O_extracted (term, cost))
    end
    else begin
      let st = Extract.make t.eg in
      match Egraph.canon t.eg v with
      | Eclass cls -> emit t (O_variants (Extract.variants st cls n))
      | prim -> emit t (O_variants [ (Extract.prim prim, 0) ])
    end
  | C_check facts ->
    if query t facts = [] then
      error "check failed: %a" Fmt.(list ~sep:sp Ast.pp_fact) facts
    else emit t O_checked
  | C_print_function (name, n) ->
    let fn = Egraph.find_func t.eg (Symbol.intern name) in
    let buf = Buffer.create 256 in
    let count = ref 0 in
    Egraph.iter_rows t.eg fn (fun args out ->
        if !count < n then begin
          incr count;
          Buffer.add_string buf
            (Fmt.str "(%s %a) -> %a\n" name
               Fmt.(array ~sep:sp Value.pp)
               args Value.pp out)
        end);
    emit t (O_msg (Buffer.contents buf))
  | C_print_stats -> emit t (O_msg (Fmt.str "%a" Egraph.pp_stats t.eg))
  | C_push ->
    t.snapshots <-
      {
        s_eg = Egraph.copy t.eg;
        s_globals = Hashtbl.copy t.globals;
        s_rules_rev = t.rules_rev;
        s_rule_keys = Hashtbl.copy t.rule_keys;
        s_rulesets = t.rulesets;
      }
      :: t.snapshots
  | C_pop -> (
    match t.snapshots with
    | [] -> error "pop without a matching push"
    | s :: rest ->
      t.eg <- s.s_eg;
      t.globals <- s.s_globals;
      t.rules_rev <- s.s_rules_rev;
      t.rule_keys <- s.s_rule_keys;
      t.rulesets <- s.s_rulesets;
      t.snapshots <- rest;
      (* the restored graph has an older clock: scan horizons and ban
         clocks recorded against the discarded graph are meaningless now *)
      t.idx <- None;
      List.iter
        (fun r ->
          r.r_last_scan <- -1;
          r.r_pins <- [||];
          r.r_banned_until <- 0;
          (* compiled plans and appliers hold function records and globals
             of the discarded graph — recompile against the restored one *)
          r.r_gplan <- None;
          r.r_capply <- None)
        t.rules_rev;
      (* applied-cost memo refers to the discarded graph's codes *)
      Hashtbl.reset t.costs_applied)

(** Execute a list of commands; outputs are appended to [t.outputs]. *)
let run_commands t cmds = List.iter (run_command t) cmds

(** Execute Egglog source text. *)
let run_string t src = run_commands t (Parser.parse_program src)

(** Outputs in execution order. *)
let outputs t = List.rev t.outputs

(** The last extraction result, if any. *)
let last_extracted t =
  List.find_map (function O_extracted (term, cost) -> Some (term, cost) | _ -> None) t.outputs

(** The most recent saturation statistics, if any. *)
let last_stats t = t.last_stats

(** Convenience: parse and run a complete program in a fresh engine. *)
let run_program ?max_nodes ?timeout (src : string) : t * output list =
  let t = create ?max_nodes ?timeout () in
  run_string t src;
  (t, outputs t)
