(** The Egglog command interpreter: executes programs against an e-graph.

    This is the engine façade used by DialEgg and the CLI: feed it commands
    (parsed from [.egg] text or built programmatically), then inspect
    extraction results and saturation statistics. *)

exception Error of string

(** Immutable snapshot of one rule's lifetime saturation statistics. *)
type rule_stat = {
  rs_name : string;
  rs_ruleset : string option;
  rs_searches : int;  (** iterations in which the rule actually searched *)
  rs_matches : int;
      (** matches found; every match found is applied in the iteration
          that found it *)
  rs_search_time : float;  (** seconds e-matching *)
  rs_apply_time : float;  (** seconds running actions *)
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

val pp_stop_reason : Format.formatter -> stop_reason -> unit

(** True saturation: the run reached a fixpoint rather than a budget. *)
val stopped_saturated : stop_reason -> bool

(** Did the run stop on a resource budget (as opposed to saturating or
    faulting)? *)
val stopped_on_limit : stop_reason -> bool

type run_stats = {
  mutable iterations : int;
  mutable matches : int;  (** total rule matches applied *)
  mutable sat_time : float;  (** seconds spent saturating *)
  mutable search_time : float;  (** seconds in rule search (e-matching) *)
  mutable apply_time : float;  (** seconds applying rule actions *)
  mutable rebuild_time : float;
      (** seconds restoring congruence (deferred rebuild batches) *)
  mutable stop : stop_reason;
  mutable peak_nodes : int;  (** largest e-graph size seen during the run *)
}

type output =
  | O_extracted of Extract.term * int  (** term and its tree cost *)
  | O_variants of (Extract.term * int) list  (** cheapest-first variants *)
  | O_checked
  | O_ran of run_stats
  | O_msg of string

type t

(** Testing/ablation hook: force every rule to rescan each iteration
    instead of dirty-table skipping. *)
val set_disable_dirty_skip : t -> bool -> unit

(** Naive matching: search every due rule in full ([since = -1], the
    whole join) instead of its seminaive delta.  Same join, same fixpoint,
    asymptotically slower — for ablation and the [--naive-matching] CLI
    escape hatch. *)
val set_naive_matching : t -> bool -> unit

(** [set_backoff], [set_match_limit] and [set_ban_length] are accepted
    and ignored, like {!create}'s [engine] and [jobs]: there is no rule
    scheduler, and every due rule's matches are applied in the iteration
    that found them.  They stay only so that [perfbench/replica.ml], which
    calls them, still builds. *)
val set_backoff : t -> bool -> unit

val set_match_limit : t -> int -> unit
val set_ban_length : t -> int -> unit

(** Per-rule lifetime saturation statistics, in registration order. *)
val rule_stats : t -> rule_stat list

(** Fresh engine.  Its {!run} applies every match it finds, like
    Egglog's plain [(run n)]: the resource budget, with anytime
    extraction, is what bounds a ruleset that never saturates.  [limits]
    sets that budget; the legacy
    [max_nodes] (default 200k) and [timeout] (seconds) are shorthands for
    a node-and-time-only budget and are ignored when [limits] is given.
    [engine] and [jobs] are accepted and ignored, so that callers written
    against the older API, such as [perfbench/replica.ml], still build:
    the arena is the only storage engine, and saturation runs on one
    domain. *)
val create :
  ?max_nodes:int ->
  ?timeout:float ->
  ?limits:Limits.t ->
  ?engine:Egraph.engine ->
  ?jobs:int ->
  unit ->
  t

(** An engine that starts as [base] is now and changes on its own from
    there: nothing either engine does later reaches the other.  It gets
    copies of [base]'s e-graph (tables, union-find, value pool, cost
    overrides; see {!Egraph.copy}), globals, rules, rulesets and rule
    counter, so the next rule registered gets the [rule-N] number it
    would get in [base].  Each rule keeps its premises, actions and
    pinned globals, and starts unscanned and with zero statistics.  A rule [base] has compiled (at a search, or by
    {!compile_rules}) starts with [base]'s plan and applier, when they
    call only tables [base] declared: the fork's first search of the
    rule takes an instance of them, with the fork's tables and search
    scratch of its own, instead of compiling it, which gives what the
    fork's own compile would.  A rule that is not due, or one of whose
    tables has no row, is settled without them, as before its first
    use.  The matching regime is [base]'s; the resource budget is
    [limits].  Outputs, push/pop snapshots, checkpoints, the last run's
    statistics and the iteration count start empty.  Forking a prelude
    engine gives the engine a replay of the prelude into {!create}
    would, with the same table order, and the same codes unless [base]
    interned literals by compiling rules ahead. *)
val fork : limits:Limits.t -> t -> t

(** Compile now every registered rule not compiled yet whose premises
    compile and whose actions call only declared tables, so that forks
    taken from now on start with the plans (see {!fork}).  The rules'
    literals are interned in the pool; nothing else changes: a rule
    compiled ahead is still settled without a search while one of its
    tables is empty. *)
val compile_rules : t -> unit

(** How many rules this engine compiled itself, at a search or ahead; a
    plan a fork starts with is not counted in the fork. *)
val compiled_rules : t -> int

(** Seconds this engine spent making rules ready at their first search:
    compiling them, or making an instance of the plan they started with
    (see {!fork}). *)
val first_use_time : t -> float

(** Rule registrations compiled once against an engine, for its forks. *)
type prepared_rules

(** [prepare_rules t cmds] compiles the rules [cmds] register against
    [t], as {!compile_rules} would, without registering them.  When
    [cmds] holds anything but [rule]s, {!add_prepared} runs them
    instead. *)
val prepare_rules : t -> Ast.command list -> prepared_rules

(** [add_prepared t p] does what [run_commands t cmds] would, for the
    commands [p] was prepared from: it registers the same rules under
    the same names, keys and [rule-N] numbers.  When [t] is a fork of the
    engine [p] was prepared against and has the same declarations,
    globals and rule keys (its own registrations aside, none of which is
    one of [p]'s rules), the rules are spliced in with their plans; else
    the commands run. *)
val add_prepared : t -> prepared_rules -> unit

val limits : t -> Limits.t

(** {1 Anytime checkpoints} *)

(** The best extraction of the checkpoint root seen so far, recorded
    periodically during saturation so a limit or fault still yields a
    result. *)
type checkpoint = { ck_term : Extract.term; ck_cost : int; ck_iteration : int }

(** Track [root]'s best extraction with a checkpoint every [every]
    (default 4) successful iterations, plus one immediately and one when a
    run stops (for any reason).  Checkpointing never raises. *)
val set_checkpoint_root : ?every:int -> t -> Value.t -> unit

(** Best checkpoint so far (lowest cost), if any was taken. *)
val best_checkpoint : t -> checkpoint option

val egraph : t -> Egraph.t

(** Value of a global let-binding.  @raise Error if unknown. *)
val global : t -> string -> Value.t

val global_opt : t -> string -> Value.t option

(** Evaluate a ground expression, as top-level commands do: a name is a
    global (may create e-nodes). *)
val eval : t -> Ast.expr -> Value.t

(** Execute one top-level action. *)
val run_action : t -> Ast.action -> unit

(** Every match of the premises in the current e-graph (rebuilt first),
    through the join's full search (its first term, every row of every
    atom) and the compiled residual facts — what [(check ...)] asks: per match, the premises' own variables with their
    canonical values, sorted by name.  [pinned] are the bare names that
    denote globals (default: those that are globals now). *)
val query : ?pinned:string list -> t -> Ast.fact list -> (string * Value.t) list list

(** Each registered rule's name, premises, and the bare premise names it
    pins to globals (those that were globals when it was registered), in
    registration order. *)
val premises : t -> (string * Ast.fact list * string list) list

(** Register a rule programmatically. *)
val add_rule :
  t -> ?name:string -> ?ruleset:string -> Ast.fact list -> Ast.action list -> unit

(** Saturate: repeat match-apply-rebuild until fixpoint or a budget.
    Each iteration applies every match its due rules found; the run is
    [Saturated] when an iteration leaves the e-graph's clock where it
    was.  With [?ruleset], only that ruleset's rules run (default: the
    rules registered without a ruleset). *)
val run : ?ruleset:string -> t -> int -> run_stats

(** Execute one command. *)
val run_command : t -> Ast.command -> unit

val run_commands : t -> Ast.command list -> unit

(** Parse and execute Egglog source text. *)
val run_string : t -> string -> unit

(** Outputs in execution order. *)
val outputs : t -> output list

(** The most recent extraction, if any. *)
val last_extracted : t -> (Extract.term * int) option

(** The most recent saturation statistics, if any. *)
val last_stats : t -> run_stats option

(** Parse and run a complete program in a fresh engine. *)
val run_program : ?max_nodes:int -> ?timeout:float -> string -> t * output list
