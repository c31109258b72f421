(** The Egglog command interpreter: executes programs against an e-graph.

    This is the engine façade used by DialEgg: feed it commands (parsed from
    [.egg] text or built programmatically), then inspect extraction results
    and saturation statistics. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* Slot-compiled rules: a rule's matches arrive as flat rows of arena
   codes (Matcher.gsolve_packed), and its residual facts and actions are
   compiled once against the row's slot layout — variable names resolved
   to slot indexes, table names interned, sorts checked statically — so
   filtering and applying a match is array indexing and code-level
   e-graph operations, with no environment maps or string hashing on the
   hot path.  Top-level actions run on the same evaluator. *)
type cval =
  | K_slot of int  (* read a packed-row / let slot *)
  | K_global of string  (* resolved in [t.globals] at apply time *)
  | K_const of int
      (* pre-encoded code: the pool is append-only and a fork copies it, so
         the code means the same in every fork taken after the compile *)
  | K_prim of string * cval array  (* decodes args, encodes the result *)
  | K_table of Egraph.func * cval array * int array
      (* + per-node key scratch; the table is the running engine's: an
         applier compiled in another engine is {!relink}ed first *)
  | K_check of Egraph.sort_kind * cval
      (* runtime sort check, only where the sort isn't known statically
         (primitive results, globals and residual-bound slots) *)
  | K_apply of string * cval array
      (* a table call that did not check when the rule was compiled (its
         table undeclared then, a wrong arity or a statically mis-sorted
         argument): resolved and applied on decoded values when evaluated,
         so the e-graph reports what is wrong, or the call succeeds once
         the table is declared *)
  | K_wildcard  (* raises: a wildcard has no value *)

(* [set], [unstable-cost] or [delete] of a table call that did not check
   when the rule was compiled, resolved when it runs (see [K_apply]) *)
type late = L_set of cval | L_cost of cval | L_delete

type caction =
  | KA_let of int * cval  (* evaluate, then write the slot *)
  | KA_union of cval * cval
  | KA_set of Egraph.func * cval array * int array * cval
  | KA_expr of cval
  | KA_cost of Egraph.func * cval array * int array * cval
  | KA_delete of Egraph.func * cval array * int array
  | KA_late of late * string * cval array
  | KA_fail of string  (* a panic, or an action on a non-application *)

(* A residual fact compiled against the packed row.  Its conjuncts are
   classified when the rule is compiled, from which variables are bound
   at that point; at run time a primitive that fails means the fact does
   not hold. *)
type cstep =
  | KS_guard of cval  (* holds unless it fails or is [false] *)
  | KS_eq of cval * cmatch list
      (* the first conjunct that can be evaluated gives a value, which the
         others match in order *)
  | KS_never  (* some conjunct can never be evaluated *)
  | KS_unconstrained of string  (* raised at the first row that gets here *)

and cmatch =
  | KM_equal of cval  (* evaluates to an equal value (canonically) *)
  | KM_bind of int  (* writes the value's canonical code to the slot *)
  | KM_vec of cmatch array  (* a vector of this length, matched elementwise *)
  | KM_any

type capply = {
  ca_steps : cstep list;  (* the residual facts, in the order they run *)
  ca_acts : caction array;
  ca_slots : int;  (* scratch row width: packed row + let bindings *)
  ca_closed : bool;
      (* every table called was declared when this was compiled: an engine
         with these declarations and more compiles the same *)
}

(* A rule as registered, fixed from then on. *)
type rule_def = {
  r_name : string;
  r_facts : Ast.fact list;
  r_actions : Ast.action list;
  r_ruleset : string option;  (** [None] = the default ruleset *)
  r_refs : Symbol.t list;  (** function tables the premises read *)
  r_calls : (Symbol.t * int) list;
      (** each table the premises call, with the argument count of the call *)
  r_pinned : string list;
      (** the bare premise names that were globals when the rule was
          registered: these denote the globals, every other name is a
          pattern variable *)
}

type rule = {
  r_def : rule_def;
  mutable r_gplan : Matcher.gplan option;
      (** the premises flattened and compiled for the generic join, made
          at the first search (and again after a [pop], which restores an
          older e-graph) *)
  mutable r_capply : capply option;
      (** the residuals and actions slot-compiled against [r_gplan]'s
          packed rows, made with it *)
  mutable r_ready : (Matcher.gplan * capply) option;
      (** a closed plan and applier made before the first search, which
          takes an instance of them instead of compiling: made by
          {!compile_rules}, or held by the engine this one was forked from
          (its literal codes are in the pool the fork copied).  Never
          searched with or applied itself, so it holds no engine's rows. *)
  mutable r_last_scan : int;  (** e-graph clock at the last match scan *)
  mutable r_pins : int array;
      (** canonical codes of the globals the premises name, as of the last
          match scan ({!Matcher.pins}) *)
  (* lifetime statistics *)
  mutable r_n_searches : int;
  mutable r_n_matches : int;  (** matches found, each applied *)
  mutable r_search_time : float;
  mutable r_apply_time : float;
}

(** Immutable snapshot of one rule's saturation statistics. *)
type rule_stat = {
  rs_name : string;
  rs_ruleset : string option;
  rs_searches : int;
  rs_matches : int;
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

(** A rule as registered: its own name (if any), premises, actions,
    ruleset and the bare premise names it pins to globals.  Registering an
    equal rule again is a no-op. *)
type rule_key =
  string option * Ast.fact list * Ast.action list * string option * string list

type t = {
  mutable eg : Egraph.t;
  mutable globals : (string, Value.t) Hashtbl.t;
  mutable rules_rev : rule list;  (** newest registration first *)
  mutable rule_keys : (rule_key, unit) Hashtbl.t;
      (** the keys of the rules registered here since the last {!fork} or
          {!prepare_rules} of this engine *)
  mutable key_layers : (rule_key, unit) Hashtbl.t list;
      (** the keys of the rules registered before: tables no engine writes
          any more, shared with forks and prepared registrations *)
  mutable n_compiled : int;  (** rules this engine compiled itself *)
  mutable first_use_time : float;
      (** seconds spent making rules ready at their first search *)
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
  mutable iter_counter : int;
      (** absolute iteration count across all [(run)]s, which dates the
          anytime checkpoints *)
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
  s_key_layers : (rule_key, unit) Hashtbl.t list;
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
    key_layers = [];
    n_compiled = 0;
    first_use_time = 0.;
    rulesets = [];
    rule_counter = 0;
    limits;
    last_stats = None;
    outputs = [];
    snapshots = [];
    disable_dirty_skip = false;
    naive_matching = false;
    iter_counter = 0;
    idx = None;
    ck_root = None;
    ck_every = 0;
    best_ck = None;
    costs_applied = Hashtbl.create 256;
  }

(* A rule in the state of one just registered: no plan, never scanned,
   no statistics. *)
let unused_rule ?ready r_def =
  {
    r_def;
    r_gplan = None;
    r_capply = None;
    r_ready = ready;
    r_last_scan = -1;
    r_pins = [||];
    r_n_searches = 0;
    r_n_matches = 0;
    r_search_time = 0.;
    r_apply_time = 0.;
  }

(* Turn the keys registered since the last freeze into a layer nobody
   writes, so that forks can share it. *)
let freeze_keys t =
  if Hashtbl.length t.rule_keys > 0 then begin
    t.key_layers <- t.rule_keys :: t.key_layers;
    t.rule_keys <- Hashtbl.create 16
  end

let registered t key =
  Hashtbl.mem t.rule_keys key || List.exists (fun l -> Hashtbl.mem l key) t.key_layers

(* The plan and applier a fork may start [r] with: closed, and compiled
   against the current e-graph, whose pool the fork copies. *)
let portable r =
  match (r.r_gplan, r.r_capply) with
  | Some gp, Some ca when ca.ca_closed -> Some (gp, ca)
  | _ -> r.r_ready

(** An engine that starts as [base] is now and changes on its own from
    there (see the interface).  The matcher index and the applied-cost
    memo start empty: both hold codes and rows of one e-graph.  The
    rules' compiled plans and the rule keys are shared, not copied:
    neither is written once made. *)
let fork ~limits base =
  freeze_keys base;
  {
    eg = Egraph.copy base.eg;
    globals = Hashtbl.copy base.globals;
    rules_rev = List.map (fun r -> unused_rule ?ready:(portable r) r.r_def) base.rules_rev;
    rule_keys = Hashtbl.create 16;
    key_layers = base.key_layers;
    n_compiled = 0;
    first_use_time = 0.;
    rulesets = base.rulesets;
    rule_counter = base.rule_counter;
    limits;
    last_stats = None;
    outputs = [];
    snapshots = [];
    disable_dirty_skip = base.disable_dirty_skip;
    naive_matching = base.naive_matching;
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
let set_backoff _ (_ : bool) = ()
let set_match_limit _ (_ : int) = ()
let set_ban_length _ (_ : int) = ()
let egraph t = t.eg

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
        rs_name = r.r_def.r_name;
        rs_ruleset = r.r_def.r_ruleset;
        rs_searches = r.r_n_searches;
        rs_matches = r.r_n_matches;
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

(* A table call resolved by name when it runs and applied on values, so
   the e-graph checks its arity and argument sorts. *)
let apply_named t f (vals : Value.t array) : Value.t =
  match Egraph.apply t.eg (Egraph.find_func t.eg (Symbol.intern f)) vals with
  | Some v -> v
  | None -> error "(%s ...) has no defined output (use set before reading it)" f

(* A ground top-level expression, evaluated directly: a name is a global. *)
let rec eval t (e : Ast.expr) : Value.t =
  match e with
  | Var x -> (
    match Hashtbl.find_opt t.globals x with
    | Some v -> v
    | None -> error "unbound name %s" x)
  | Wildcard -> error "wildcard in expression position"
  | Lit l -> Matcher.value_of_lit l
  | Call (f, args) ->
    let vals = List.map (eval t) args in
    if Primitives.is_primitive f then apply_prim f vals else apply_named t f (Array.of_list vals)

(* ------------------------------------------------------------------ *)
(* Slot-compiled rules                                                 *)
(* ------------------------------------------------------------------ *)

(** Compile a rule's residual facts and [actions] against the packed-row
    slot layout [names] / [slot_sorts] (one slot per variable the join
    emits or a residual binds, in row order).  Total: a shape that cannot
    be checked now compiles to code that fails, or resolves the table,
    when it runs.  [ground] compiles a top-level action (no slots): every
    table call is then resolved and sort-checked by the e-graph as it
    runs.

    Residuals: [pinned] are the bare names that denote globals; a
    conjunct is evaluable when every variable in it is a pinned global, a
    join slot, or a slot an earlier residual (or conjunct) binds.

    Actions: [let]s get fresh slots after the packed row's — shadowing a
    slot's name reuses it, which is safe because each match is applied on
    a freshly blitted scratch row.  Names bound by neither compile to
    global references resolved at apply time.  Sorts are tracked during
    compilation; a table call with a statically mis-sorted argument or
    the wrong arity is applied on decoded values (so the e-graph reports
    it), and only positions whose sort cannot be known statically get a
    runtime [K_check]. *)
let compile_rule ?(ground = false) eg ~(pinned : string list) (names : string array)
    (slot_sorts : Egraph.sort_kind option array) (residuals : Ast.fact list)
    (actions : Ast.action list) : capply =
  let pool = Egraph.pool eg in
  let closed = ref true in
  let slots : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace slots x i) names;
  let next = ref (Array.length names) in
  (* static sort of each slot; [None] for a let bound to a value of
     unknown sort *)
  let let_sorts : (int, Egraph.sort_kind option) Hashtbl.t = Hashtbl.create 8 in
  let slot_sort i =
    if i < Array.length slot_sorts then slot_sorts.(i)
    else Option.join (Hashtbl.find_opt let_sorts i)
  in
  let lit_sort : Ast.lit -> Egraph.sort_kind = function
    | L_i64 _ -> S_i64
    | L_f64 _ -> S_f64
    | L_string _ -> S_string
    | L_bool _ -> S_bool
    | L_unit -> S_unit
  in
  let rec cexpr (e : Ast.expr) : cval * Egraph.sort_kind option =
    match e with
    | Var x -> (
      match Hashtbl.find_opt slots x with
      | Some i -> (K_slot i, slot_sort i)
      | None -> (K_global x, None))
    | Wildcard -> (K_wildcard, None)
    | Lit l -> (K_const (Arena.encode pool (Matcher.value_of_lit l)), Some (lit_sort l))
    | Call (f, args) when Primitives.is_primitive f ->
      (K_prim (f, Array.of_list (List.map (fun a -> fst (cexpr a)) args)), None)
    | Call (f, args) -> (
      let cargs = List.map cexpr args in
      match checked f cargs with
      | Some (fn, cvs) ->
        (K_table (fn, cvs, Array.make (Array.length cvs) 0), Some fn.Egraph.ret_sort)
      | None -> (K_apply (f, Array.of_list (List.map fst cargs)), None))
  (* the call of [f] on [cargs], if [f] is a declared table of that arity
     and no argument's static sort is wrong *)
  and checked f cargs : (Egraph.func * cval array) option =
    match Egraph.find_func_opt eg (Symbol.intern f) with
    | Some fn when (not ground) && List.length cargs = Array.length fn.Egraph.arg_sorts -> (
      let sorts = fn.Egraph.arg_sorts in
      let coerce i (cv, so) =
        match so with
        | None -> K_check (sorts.(i), cv)
        | Some s -> if s = sorts.(i) then cv else raise Exit
      in
      match List.mapi coerce cargs with
      | cvs -> Some (fn, Array.of_list cvs)
      | exception Exit -> None)
    | Some _ -> None
    | None ->
      closed := false;
      None
  in
  let steps =
    if residuals = [] then []
    else begin
      (* which names are bound, as the steps run *)
      let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      List.iter (fun x -> Hashtbl.replace bound x ()) pinned;
      Array.iteri
        (fun i x -> if slot_sorts.(i) <> None then Hashtbl.replace bound x ())
        names;
      let rec evaluable (e : Ast.expr) =
        match e with
        | Var x -> Hashtbl.mem bound x
        | Lit _ -> true
        | Wildcard -> false
        | Call (_, args) -> List.for_all evaluable args
      in
      let all l = if List.exists Option.is_none l then None else Some (List.filter_map Fun.id l) in
      (* [e] matched against a known value; [None] when it never can be *)
      let rec cmatch (e : Ast.expr) : cmatch option =
        match e with
        | Wildcard -> Some KM_any
        | Var x when not (Hashtbl.mem bound x) ->
          Hashtbl.replace bound x ();
          Some (KM_bind (Hashtbl.find slots x))
        | Call ("vec-of", elems) when not (evaluable e) ->
          Option.map (fun ms -> KM_vec (Array.of_list ms)) (all (List.map cmatch elems))
        | _ -> if evaluable e then Some (KM_equal (fst (cexpr e))) else None
      in
      let cstep (f : Ast.fact) : cstep =
        match f with
        | F_expr (Var _ as e) when not (evaluable e) ->
          KS_unconstrained (Fmt.str "unconstrained variable in fact: %a" Ast.pp_expr e)
        | F_expr Wildcard -> KS_unconstrained "unconstrained wildcard in fact"
        | F_expr e -> if evaluable e then KS_guard (fst (cexpr e)) else KS_never
        | F_eq es -> (
          match List.find_opt evaluable es with
          | None ->
            if List.for_all (function Ast.Var _ | Ast.Wildcard -> true | _ -> false) es then
              KS_unconstrained "unconstrained (=) fact"
            else KS_never
          | Some known ->
            let kv = fst (cexpr known) in
            match all (List.map (fun e -> if e == known then Some KM_any else cmatch e) es) with
            | Some ms -> KS_eq (kv, ms)
            | None -> KS_never)
      in
      List.map cstep residuals
    end
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
    | A_expr e -> KA_expr (fst (cexpr e))
    | A_set (Call (f, args), rhs) -> (
      let cargs = List.map cexpr args in
      let rv, rs = cexpr rhs in
      match checked f cargs with
      | Some (fn, cvs) when rs = None || rs = Some fn.Egraph.ret_sort ->
        let rv = if rs = None then K_check (fn.Egraph.ret_sort, rv) else rv in
        KA_set (fn, cvs, Array.make (Array.length cvs) 0, rv)
      | _ -> KA_late (L_set rv, f, Array.of_list (List.map fst cargs)))
    | A_cost (Call (f, args), c) -> (
      let cargs = List.map cexpr args in
      let cv = fst (cexpr c) in
      match checked f cargs with
      | Some (fn, cvs) -> KA_cost (fn, cvs, Array.make (Array.length cvs) 0, cv)
      | None -> KA_late (L_cost cv, f, Array.of_list (List.map fst cargs)))
    | A_delete (Call (f, args)) -> (
      let cargs = List.map cexpr args in
      match checked f cargs with
      | Some (fn, cvs) -> KA_delete (fn, cvs, Array.make (Array.length cvs) 0)
      | None -> KA_late (L_delete, f, Array.of_list (List.map fst cargs)))
    | A_set (e, _) -> KA_fail (Fmt.str "set expects a function application, got %a" Ast.pp_expr e)
    | A_cost (e, _) ->
      KA_fail (Fmt.str "unstable-cost expects an e-node application, got %a" Ast.pp_expr e)
    | A_delete e -> KA_fail (Fmt.str "delete expects a function application, got %a" Ast.pp_expr e)
    | A_panic msg -> KA_fail ("panic: " ^ msg)
  in
  let acts = List.map cact actions in
  { ca_steps = steps; ca_acts = Array.of_list acts; ca_slots = !next; ca_closed = !closed }

(* [ca], compiled against another e-graph with the same declarations of
   the tables it calls (a closed applier of the engine this one was
   forked from), made [eg]'s: each table resolved in [eg] once, and key
   scratch of its own.  The compiled applier is left as it was, so it
   holds no engine's rows. *)
let relink eg (ca : capply) : capply =
  let table (fn : Egraph.func) = Egraph.find_func eg fn.Egraph.sym in
  let scratch key = Array.make (Array.length key) 0 in
  let rec cv = function
    | K_table (fn, args, key) -> K_table (table fn, Array.map cv args, scratch key)
    | K_prim (f, args) -> K_prim (f, Array.map cv args)
    | K_check (k, c) -> K_check (k, cv c)
    | K_apply (f, args) -> K_apply (f, Array.map cv args)
    | (K_slot _ | K_global _ | K_const _ | K_wildcard) as c -> c
  in
  let rec cm = function
    | KM_equal c -> KM_equal (cv c)
    | KM_vec ms -> KM_vec (Array.map cm ms)
    | (KM_bind _ | KM_any) as m -> m
  in
  let step = function
    | KS_guard c -> KS_guard (cv c)
    | KS_eq (c, ms) -> KS_eq (cv c, List.map cm ms)
    | (KS_never | KS_unconstrained _) as s -> s
  in
  let late = function L_set c -> L_set (cv c) | L_cost c -> L_cost (cv c) | L_delete -> L_delete in
  let act = function
    | KA_let (slot, c) -> KA_let (slot, cv c)
    | KA_union (a, b) -> KA_union (cv a, cv b)
    | KA_set (fn, args, key, rhs) -> KA_set (table fn, Array.map cv args, scratch key, cv rhs)
    | KA_expr c -> KA_expr (cv c)
    | KA_cost (fn, args, key, c) -> KA_cost (table fn, Array.map cv args, scratch key, cv c)
    | KA_delete (fn, args, key) -> KA_delete (table fn, Array.map cv args, scratch key)
    | KA_late (l, f, args) -> KA_late (late l, f, Array.map cv args)
    | KA_fail _ as a -> a
  in
  { ca with ca_steps = List.map step ca.ca_steps; ca_acts = Array.map act ca.ca_acts }

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
  | K_apply _ -> Arena.encode (Egraph.pool t.eg) (ceval_value t vals cv)
  | K_wildcard -> error "wildcard in expression position"

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
  | K_apply (f, args) -> apply_named t f (Array.map (ceval_value t vals) args)
  | _ -> Arena.decode (Egraph.pool t.eg) (ceval t vals cv)

(* each arm sequences sub-evaluations with [let] to keep a left-to-right
   effect order (e-node creation) *)
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
    (* reading the node creates it, as on the late path below *)
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
  | KA_late (op, f, args) -> (
    let fn = Egraph.find_func t.eg (Symbol.intern f) in
    let vs = Array.map (ceval_value t vals) args in
    match op with
    | L_set rhs -> Egraph.set t.eg fn vs (ceval_value t vals rhs)
    | L_cost c ->
      ignore (Egraph.apply t.eg fn vs);
      Egraph.set_cost t.eg fn vs (cost_of_value fn (ceval_value ~cost:fn t vals c))
    | L_delete -> Egraph.delete t.eg fn vs)
  | KA_fail msg -> error "%s" msg

(* A top-level action runs on the rules' evaluator, over an empty row:
   every name is a global, and each table call is resolved and
   sort-checked by the e-graph as it runs. *)
let run_action t (a : Ast.action) : unit =
  let ca = compile_rule ~ground:true t.eg ~pinned:[] [||] [||] [] [ a ] in
  Array.iter (run_caction t (Array.make ca.ca_slots 0)) ca.ca_acts

(* The residual steps on one packed row: false drops the row.  A residual
   expression's value is [None] when a primitive in it fails. *)
let residual_holds t (ca : capply) (row : int array) : bool =
  let value cv = try Some (ceval_value t row cv) with Error _ -> None in
  let same a b = Value.equal (Egraph.canon t.eg a) (Egraph.canon t.eg b) in
  let rec matches v = function
    | KM_any -> true
    | KM_bind s ->
      row.(s) <- Arena.encode (Egraph.pool t.eg) (Egraph.canon t.eg v);
      true
    | KM_equal cv -> ( match value cv with Some w -> same w v | None -> false)
    | KM_vec ms -> (
      match v with
      | Value.Vec elems when Array.length elems = Array.length ms ->
        let ok = ref true and i = ref 0 in
        while !ok && !i < Array.length ms do
          ok := matches elems.(!i) ms.(!i);
          incr i
        done;
        !ok
      | _ -> false)
  in
  List.for_all
    (function
      | KS_guard cv -> (
        match value cv with Some (Value.Bool false) | None -> false | Some _ -> true)
      | KS_eq (known, ms) -> (
        match value known with Some v -> List.for_all (matches v) ms | None -> false)
      | KS_never -> false
      | KS_unconstrained msg -> raise (Matcher.Error msg))
    ca.ca_steps

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
       r.r_def.r_refs

(* every variable name a rule's actions mention: the join only needs to
   emit these (plus residual-fact vars) into packed rows *)
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

(* the generic-join plan of [facts] and its slot-compiled residuals and
   [actions] *)
let compile_plan t idx ?keep ~pinned facts actions =
  let gp = Matcher.gcompile ?keep ~pinned idx (Matcher.compile facts) in
  ( gp,
    compile_rule t.eg ~pinned (Matcher.gp_slot_names gp) (Matcher.gp_slot_sorts idx gp)
      (Matcher.gp_residuals gp) actions )

(* [d]'s plan and applier, counted as this engine's compile *)
let compile_def t idx d =
  let p =
    compile_plan t idx ~keep:(action_vars d.r_actions) ~pinned:d.r_pinned d.r_facts d.r_actions
  in
  t.n_compiled <- t.n_compiled + 1;
  p

(* [r]'s plan and applier, made on first use: an instance of the one
   made ahead, or compiled now *)
let compiled t idx r =
  match (r.r_gplan, r.r_capply) with
  | Some gp, Some ca -> (gp, ca)
  | _ ->
    let t0 = Unix.gettimeofday () in
    let gp, ca =
      match r.r_ready with
      | Some (gp, ca) -> (Matcher.gp_instance gp, relink t.eg ca)
      | None -> compile_def t idx r.r_def
    in
    t.first_use_time <- t.first_use_time +. (Unix.gettimeofday () -. t0);
    r.r_gplan <- Some gp;
    r.r_capply <- Some ca;
    (gp, ca)

(* [d] compiled now for use later, here or in a fork: [None] unless it
   compiles and is closed.  Its literals are interned in this engine's
   pool, which forks taken from now on copy. *)
let compile_ahead t idx d =
  match compile_def t idx d with
  | (_, ca) as p when ca.ca_closed -> Some p
  | _ -> None
  | exception (Error _ | Matcher.Error _ | Egraph.Error _) -> None

let compile_rules t =
  let idx = get_index t in
  List.iter
    (fun r -> if r.r_gplan = None && r.r_ready = None then r.r_ready <- compile_ahead t idx r.r_def)
    t.rules_rev

let compiled_rules t = t.n_compiled
let first_use_time t = t.first_use_time

(* Can [r]'s search be settled as "no matches" without compiling it?
   Only where compiling would succeed and the join would find nothing:
   every table the premises call is declared with the arity of the call,
   and one of the tables has no live row — every match needs a row of
   each.  The globals a rule pins are fixed when it is registered, so
   compiling later sees the same plan as compiling now.  The graph is
   rebuilt, hence compacted, when this is asked. *)
let idle t r =
  List.for_all
       (fun (sym, n) ->
         match Egraph.find_func_opt t.eg sym with
         | Some f -> Array.length f.Egraph.arg_sorts = n
         | None -> false)
       r.r_def.r_calls
  && List.exists
       (fun sym -> Arena.n_live (Egraph.find_func t.eg sym).Egraph.store = 0)
       r.r_def.r_refs

(* has a global the premises name changed class since the last scan?  Old
   rows can match it now, so the rule is due even if its tables are not *)
let pins_moved idx r =
  match r.r_gplan with Some gp -> Matcher.pins idx gp <> r.r_pins | None -> false

(* how a due rule searches *)
type search =
  | Idle  (* {!idle}: no matches, and nothing compiled *)
  | Join of { gplan : Matcher.gplan; capply : capply; since : int }

(* one due rule, ready to search *)
type prepared = { s_rule : rule; s_search : search; s_pins : int array }

(** Run one saturation iteration: search every due rule (seminaive deltas by
    default), then apply every match found in a second phase, then
    rebuild.  Returns the number of matches applied. *)
let run_iteration ?ruleset t (stats : run_stats) : int =
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
  (* which rules are due this iteration *)
  let due =
    filter_rules t (fun r ->
        r.r_def.r_ruleset = ruleset && (rule_dirty t r || pins_moved idx r))
  in
  (* resolve each rule's search up front (compiling generic-join plans
     and packed appliers on first use), so the search timers measure the
     joins alone.  An idle rule compiles nothing: it is compiled at the
     first search that can find something. *)
  let prepare r =
    if Option.is_none r.r_gplan && idle t r then { s_rule = r; s_search = Idle; s_pins = [||] }
    else
      let gp, ca = compiled t idx r in
      let pins = Matcher.pins idx gp in
      (* naive matching, and a rule whose globals' classes merged since its
         last scan, search in full *)
      let since = if t.naive_matching || pins <> r.r_pins then -1 else r.r_last_scan in
      { s_rule = r; s_search = Join { gplan = gp; capply = ca; since }; s_pins = pins }
  in
  let prepared = List.map prepare due in
  let search s =
    match s.s_search with
    | Idle -> (None, 0.)
    | Join { gplan; capply; since } ->
      let t0 = Unix.gettimeofday () in
      let pk = Matcher.gsolve_packed idx gplan ~since ~residual:(residual_holds t capply) in
      (Some (capply, pk), Unix.gettimeofday () -. t0)
  in
  (* search phase: every due rule matches against the same snapshot
     before any match is applied *)
  let searched = List.map (fun s -> (s, search s)) prepared in
  (* bookkeeping in registration order: counts, times, scan horizons *)
  List.iter
    (fun (s, (ms, dt)) ->
      let r = s.s_rule in
      r.r_n_searches <- r.r_n_searches + 1;
      r.r_search_time <- r.r_search_time +. dt;
      stats.search_time <- stats.search_time +. dt;
      let n = match ms with Some (_, pk) -> pk.Matcher.pk_rows | None -> 0 in
      r.r_n_matches <- r.r_n_matches + n;
      r.r_last_scan <- scan_clock;
      r.r_pins <- s.s_pins)
    searched;
  (* apply phase: every match found *)
  let n =
    List.fold_left
      (fun acc (s, (ms, _)) ->
        let r = s.s_rule in
        let t0 = Unix.gettimeofday () in
        let k =
          match ms with
          | None -> 0
          | Some (ca, pk) ->
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
        r.r_apply_time <- r.r_apply_time +. dt;
        stats.apply_time <- stats.apply_time +. dt;
        acc + k)
      0 searched
  in
  timed_rebuild ();
  n

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
         | m ->
           stats.iterations <- stats.iterations + 1;
           stats.matches <- stats.matches + m;
           stats.peak_nodes <- max stats.peak_nodes (Egraph.n_nodes t.eg);
           if t.ck_every > 0 && stats.iterations mod t.ck_every = 0 then
             take_checkpoint t;
           (* every due rule searched and applied and nothing changed: a
              fixpoint *)
           if Egraph.clock t.eg = before then begin
             stats.stop <- Saturated;
             continue := false
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
   argument count, and the bare (non-[?]) names, each once. *)
let premise_reads (facts : Ast.fact list) =
  let refs = ref [] and calls = ref [] and bare = ref [] in
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
    | Var x -> if not (Matcher.is_pattern_var x || List.mem x !bare) then bare := x :: !bare
    | Wildcard | Lit _ -> ()
  in
  List.iter
    (function Ast.F_eq es -> List.iter go_expr es | Ast.F_expr e -> go_expr e)
    facts;
  (!refs, !calls, List.rev !bare)

let check_ruleset t = function
  | None -> ()
  | Some rs -> if not (List.mem rs t.rulesets) then error "unknown ruleset %s" rs

(* A rule as registering it now would define it, with its key and the
   bare premise names it reads.  An unnamed rule's [r_name] is given when
   it is registered. *)
let define t ?name ?ruleset facts actions =
  let refs, calls, bare = premise_reads facts in
  let pinned = List.filter (Hashtbl.mem t.globals) bare in
  ( (name, facts, actions, ruleset, pinned),
    {
      r_name = Option.value name ~default:"";
      r_facts = facts;
      r_actions = actions;
      r_ruleset = ruleset;
      r_refs = refs;
      r_calls = calls;
      r_pinned = pinned;
    },
    bare )

(* Append a defined rule whose key is new (the caller records the key). *)
let register t ((name, _, _, _, _) : rule_key) d ready =
  t.rule_counter <- t.rule_counter + 1;
  let d =
    match name with Some _ -> d | None -> { d with r_name = Printf.sprintf "rule-%d" t.rule_counter }
  in
  t.rules_rev <- unused_rule ?ready d :: t.rules_rev

(* Registration is O(1) in the number of rules, and compiles nothing: a
   rule is compiled at its first search that can find something
   ({!idle}).  A bare premise name denotes the global of that name if one
   exists now, whenever the rule is compiled (as [Check], which checks
   commands in order, assumes).  An identical rule registered again is a
   no-op and takes no [rule-N] number. *)
let add_rule t ?name ?ruleset facts actions =
  check_ruleset t ruleset;
  let key, d, _ = define t ?name ?ruleset facts actions in
  if not (registered t key) then begin
    Hashtbl.replace t.rule_keys key ();
    register t key d None
  end

(** Desugar [(rewrite lhs rhs :when conds)] into a rule. *)
let add_rewrite t ?ruleset ~(lhs : Ast.expr) ~(rhs : Ast.expr) ~(conds : Ast.fact list) () =
  let root = "?__rewrite_root" in
  add_rule t ?ruleset
    (Ast.F_eq [ Var root; lhs ] :: conds)
    [ Ast.A_union (Var root, rhs) ]

let emit t o = t.outputs <- o :: t.outputs

(** Every match of [facts] in the current e-graph, through the full join
    and the compiled residuals: the bindings of the premises' own
    variables, sorted by name, with canonical values.  [pinned] (default:
    the bare names that are globals now) are the names that denote
    globals. *)
let query ?pinned t facts =
  Egraph.rebuild t.eg;
  let idx = get_index t in
  let pinned =
    match pinned with
    | Some p -> p
    | None ->
      let _, _, bare = premise_reads facts in
      List.filter (Hashtbl.mem t.globals) bare
  in
  let gp, ca = compile_plan t idx ~pinned facts [] in
  let pk = Matcher.gsolve_packed idx gp ~since:(-1) ~residual:(residual_holds t ca) in
  let names = Matcher.gp_slot_names gp and own = Array.to_list (Matcher.gp_own_slots gp) in
  let value i s =
    Egraph.canon t.eg (Arena.decode (Egraph.pool t.eg) pk.pk_buf.((i * pk.pk_width) + s))
  in
  List.init pk.pk_rows (fun i -> List.sort compare (List.map (fun s -> (names.(s), value i s)) own))

(** Each rule's name, premises and the bare names it pins to globals, in
    registration order. *)
let premises t =
  List.map (fun { r_def = d; _ } -> (d.r_name, d.r_facts, d.r_pinned)) (all_rules t)

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
    let v = eval t e in
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
    run_action t a;
    Egraph.rebuild t.eg
  | C_run (n, ruleset) ->
    check_ruleset t ruleset;
    let stats = run ?ruleset t n in
    emit t (O_ran stats)
  | C_extract (e, n) ->
    let v = eval t e in
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
        s_key_layers = t.key_layers;
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
      t.key_layers <- s.s_key_layers;
      t.rulesets <- s.s_rulesets;
      t.snapshots <- rest;
      (* the restored graph has an older clock: scan horizons recorded
         against the discarded graph are meaningless now *)
      t.idx <- None;
      List.iter
        (fun r ->
          r.r_last_scan <- -1;
          r.r_pins <- [||];
          (* compiled plans and appliers may hold literal codes the
             restored pool never interned — recompile against it *)
          r.r_gplan <- None;
          r.r_capply <- None;
          r.r_ready <- None)
        t.rules_rev;
      (* applied-cost memo refers to the discarded graph's codes *)
      Hashtbl.reset t.costs_applied)

(** Execute a list of commands; outputs are appended to [t.outputs]. *)
let run_commands t cmds = List.iter (run_command t) cmds

(* Rule registrations made ready once against an engine ({!prepare_rules}). *)
type prepared_rules = {
  p_cmds : Ast.command list;
  p_rules : (rule_key * rule_def * (Matcher.gplan * capply) option) list;
      (* the rules registering [p_cmds] would add, in order, each with
         its plan and applier compiled ahead *)
  p_keys : (rule_key, unit) Hashtbl.t;  (* their keys: a layer nobody writes *)
  p_valid : bool;  (* every command is a [rule] into a declared ruleset *)
  p_funcs : Symbol.t list;  (* the declarations they were compiled against *)
  p_layers : (rule_key, unit) Hashtbl.t list;  (* the keys registered before *)
  p_globals : (string * bool) list;  (* each bare premise name: was it a global? *)
  p_rulesets : string list;  (* the named rulesets the rules go into *)
}

let prepare_rules t cmds =
  freeze_keys t;
  let idx = get_index t in
  let keys = Hashtbl.create 64 in
  let valid = ref true and rules = ref [] and globals = ref [] and rulesets = ref [] in
  let add name ruleset facts actions =
    Option.iter
      (fun rs ->
        if not (List.mem rs t.rulesets) then valid := false
        else if not (List.mem rs !rulesets) then rulesets := rs :: !rulesets)
      ruleset;
    let key, d, bare = define t ?name ?ruleset facts actions in
    List.iter
      (fun x ->
        if not (List.mem_assoc x !globals) then globals := (x, Hashtbl.mem t.globals x) :: !globals)
      bare;
    if not (registered t key || Hashtbl.mem keys key) then begin
      Hashtbl.replace keys key ();
      rules := (key, d, compile_ahead t idx d) :: !rules
    end
  in
  List.iter
    (function
      | Ast.C_rule { name; facts; actions; ruleset } -> add name ruleset facts actions
      | _ -> valid := false)
    cmds;
  {
    p_cmds = cmds;
    p_rules = List.rev !rules;
    p_keys = keys;
    p_valid = !valid;
    p_funcs = t.eg.Egraph.funcs_rev;
    p_layers = t.key_layers;
    p_globals = !globals;
    p_rulesets = !rulesets;
  }

(* Splicing [p] in registers what running its commands would: the
   engine has the declarations, the keys (its own registrations aside)
   and the globals the rules were prepared against, and registered none
   of the rules itself. *)
let add_prepared t p =
  if
    p.p_valid
    && t.eg.Egraph.funcs_rev == p.p_funcs
    && t.key_layers == p.p_layers
    && List.for_all (fun (x, g) -> Hashtbl.mem t.globals x = g) p.p_globals
    && List.for_all (fun rs -> List.mem rs t.rulesets) p.p_rulesets
    && not (Seq.exists (Hashtbl.mem p.p_keys) (Hashtbl.to_seq_keys t.rule_keys))
  then begin
    List.iter (fun (key, d, ready) -> register t key d ready) p.p_rules;
    t.key_layers <- p.p_keys :: t.key_layers
  end
  else run_commands t p.p_cmds

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
