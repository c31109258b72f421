(** Dialect registry: operation definitions, traits, verifiers and folders.
    Drives the verifier, the canonicalizer, the parser, and the
    cross-layer encoding auditor. *)

type trait =
  | Pure  (** no side effects; eligible for CSE/DCE *)
  | Commutative
  | Terminator
  | Constant_like

(** Coarse classification of an op's result type; an op may admit
    several classes, and the empty list means "unconstrained". *)
type type_class =
  | Int_like  (** iN / IntegerType *)
  | Float_like  (** f16 / f32 / f64 *)
  | Index_like  (** index *)
  | Shaped  (** tensor / memref *)

(** Memory effects of a non-[Pure] op.  [Call] marks ops whose only
    effect is transferring control to a callee. *)
type effect_kind = Read | Write | Alloc | Free | Call

type fold_result =
  | No_fold
  | Fold_to_attr of Attr.t  (** folds to a constant with this value attr *)
  | Fold_to_operand of int  (** folds to its nth operand *)

type op_def = {
  d_name : string;
  d_n_operands : int option;  (** [None] = variadic *)
  d_n_results : int option;  (** [None] = variadic / signature-dependent *)
  d_n_regions : int;
  d_traits : trait list;
  d_result_class : type_class list;  (** [[]] = unconstrained *)
  d_effects : effect_kind list;  (** meaningful only without [Pure] *)
  d_verify : (Ir.op -> (unit, string) result) option;
  d_fold : (Ir.op -> Attr.t option array -> fold_result) option;
      (** receives the constant value of each operand where known *)
}

(** Register an op definition (later registrations replace earlier ones).
    Omitting [n_results] means the result count is variadic or
    signature-dependent; single-result ops must say [~n_results:1]. *)
val def :
  ?n_operands:int ->
  ?n_results:int ->
  ?n_regions:int ->
  ?traits:trait list ->
  ?result_class:type_class list ->
  ?effects:effect_kind list ->
  ?verify:(Ir.op -> (unit, string) result) ->
  ?fold:(Ir.op -> Attr.t option array -> fold_result) ->
  string ->
  unit

val find : string -> op_def option
val is_registered : string -> bool
val has_trait : string -> trait -> bool

(** Unregistered ops are conservatively treated as effectful. *)
val is_pure : Ir.op -> bool

val is_terminator : Ir.op -> bool
val is_commutative : Ir.op -> bool
val is_constant_like : Ir.op -> bool

(** All registered op names, sorted. *)
val all_ops : unit -> string list

(** Iterate over every registered definition, in sorted name order. *)
val iter : (op_def -> unit) -> unit

val trait_name : trait -> string
val type_class_name : type_class -> string
val effect_name : effect_kind -> string

(** Content hash of every registered op spec (arities, traits, result
    classes, effects).  Changes whenever a definition that the encoding
    auditor consults changes, so cached audit verdicts self-invalidate.
    The digest is cached: it is recomputed only after a {!def}. *)
val fingerprint : unit -> string
