(** Dialect-aware linting of DialEgg rule files: the generic Egglog
    sort-checker seeded with the {!Prelude} declarations, plus lints that
    know how the eggifier and extractor behave ([bad-op-constructor],
    [dead-rule], [op-no-cost], [unstable-cost-unbound],
    [expansion-no-cost] — see [lint.ml] for their meanings). *)

(** One direction of a rewrite, or one [union] action of a [rule] with
    its let/fact bindings substituted away. *)
type directed = {
  d_name : string;
  d_span : Egglog.Sexp.span;
  d_lhs : Egglog.Ast.expr;
  d_rhs : Egglog.Ast.expr;
  d_conds : Egglog.Ast.expr list;
      (** additional LHS-side patterns (guards, other facts) *)
  d_pure : bool;  (** an unconditional rewrite — eligible for shadowing *)
}

(** A ruleset parsed once with locations and sort-checked once against
    its own copy of the prelude environment.  Lint, {!Vet} and {!Audit}
    are passes over this value and only read it, so one value serves all
    three tiers. *)
type checked = {
  c_src : string;  (** the ruleset source *)
  c_file : string option;  (** file name carried by every diagnostic *)
  c_env : Egglog.Check.env;
      (** the prelude environment extended with the ruleset's declarations *)
  c_diags : Egglog.Diag.t list;  (** the sort-checker's diagnostics *)
  c_cmds : (Egglog.Ast.command * Egglog.Sexp.located) list option;
      (** the located commands; [None] when some command fails to parse *)
  c_directed : directed list Lazy.t;
      (** the commands' directed rules, in order (none when [c_cmds] is
          [None]): built at the first read, which {!Vet} and {!Audit}
          share *)
  c_cost_targets : (string, unit) Hashtbl.t Lazy.t;
      (** the functions an [unstable-cost] action of the commands
          targets; lint and {!Audit} share it *)
  c_decls : (string, Egglog.Sexp.span) Hashtbl.t Lazy.t;
      (** the functions the commands declare, with their declaration
          sites; lint and {!Audit} share it *)
}

(** The prelude itself, checked once ([c_file] is [<prelude>]).  Read
    only: its environment is the one every {!check} copies. *)
val prelude : checked Lazy.t

(** A fresh checking environment preloaded with the DialEgg prelude. *)
val fresh_env : unit -> Egglog.Check.env

(** Mirror of the canonical parameter-order enforcement in
    {!Sigs.sig_of_function}, over declared sort names: [None] when the
    op constructor is well-formed, [Some msg] otherwise.  Shared with
    the encoding auditor. *)
val op_shape_error : string -> string list -> string option

(** Can the eggifier or a translation hook ever create a term with this
    head?  ([Op]-returning: [Value] or a well-formed op constructor;
    [Type]/[Attr]/[AttrPair]: synthesized by hooks; unknown functions:
    [true], the sort-checker already errored.) *)
val emittable : Egglog.Check.env -> string -> bool

(** Is this function declared by the DialEgg prelude? *)
val prelude_func : string -> bool

(** [call_heads acc e] adds to [acc] the head of every non-primitive
    call in [e]. *)
val call_heads : (string, unit) Hashtbl.t -> Egglog.Ast.expr -> unit

(** The expressions of a fact. *)
val fact_exprs : Egglog.Ast.fact -> Egglog.Ast.expr list

(** Check a ruleset source.  Never raises: unparsable input becomes
    [parse-error] diagnostics.  [read], when given, is
    [Egglog.Parser.read src], which is then not read again. *)
val check : ?file:string -> ?read:Egglog.Parser.program -> string -> checked

(** The sort-checker's diagnostics followed by the dialect lints'. *)
val lint_checked : checked -> Egglog.Diag.t list

(** Lint a rules program (user declarations + rewrites):
    [lint_checked (check ?file src)].  Never raises: unparsable input
    becomes [parse-error] diagnostics. *)
val lint_rules : ?file:string -> string -> Egglog.Diag.t list
