(** First-order term utilities over {!Ast.expr} patterns: structural
    equality, one-way matching, unification and alpha-equivalence.

    These are purely syntactic (no e-graph, no sort information) and are
    the pattern-level primitives behind [Dialegg.Vet]'s rule-dependency,
    overlap and shadowing analyses.  Pattern variables are compared by
    name ([?x] and the rule-local let name [t] are both {!Ast.Var}s);
    {!Ast.Wildcard} unifies with anything and binds nothing. *)

(** A substitution entry: variable name to replacement term. *)
type binding = string * Ast.expr

(** Structural equality; float literals compare by bits so NaN patterns
    equal themselves. *)
val equal : Ast.expr -> Ast.expr -> bool

(** Number of AST nodes — the term-size measure used to classify rules as
    contracting / size-preserving / expanding. *)
val size : Ast.expr -> int

(** All subterms in pre-order, the term itself first. *)
val subterms : Ast.expr -> Ast.expr list

(** [is_subterm ~sub e]: [sub] occurs in [e] (including [e] itself). *)
val is_subterm : sub:Ast.expr -> Ast.expr -> bool

(** Append [suffix] to every variable name — renames a pattern apart
    before unifying it with a pattern from another rule. *)
val rename : suffix:string -> Ast.expr -> Ast.expr

(** Simultaneous substitution of variables (no occurs handling: bindings
    are applied once, not to their own results). *)
val apply : binding list -> Ast.expr -> Ast.expr

(** [match_pattern ~general specific]: one-way matching.  Variables of
    [general] bind to subterms of [specific]; everything in [specific]
    (variables included) is treated as rigid.  Returns the substitution
    [s] with [apply s general = specific], in unspecified order. *)
val match_pattern : general:Ast.expr -> Ast.expr -> binding list option

(** Syntactic unifiability with occurs check.  [flex] marks heads whose
    applications are "computed" (Egglog primitives): a flexible
    application unifies with anything, over-approximating the values a
    primitive can produce. *)
val unifiable : ?flex:(string -> bool) -> Ast.expr -> Ast.expr -> bool

(** [alpha_bijection a b]: if [a] and [b] are equal up to a consistent
    renaming of variables, the renaming as bindings over [a]'s variables. *)
val alpha_bijection : Ast.expr -> Ast.expr -> binding list option
