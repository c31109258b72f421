(** DialEgg's pre-defined Egglog declarations (paper §4): builtin MLIR
    types and attributes, the [Value] / [Block] / [Region] encodings, and
    the common operations of the [func arith math scf tensor linalg]
    dialects — each with a latency-aligned [:cost].

    Encoding conventions (enforced by {!Sigs}): an op [d.op] with [k]
    operands is an Egglog function [d_op] (or [d_op_k] when variadic) whose
    parameters are the operands ([Op] each), one [AttrPair] per named
    attribute (sorted by name), one [Region] per region, and a trailing
    [Type] iff the op has exactly one result. *)

(** The prelude as Egglog source text. *)
val source : string

(** Parsed prelude commands (parsed once, lazily). *)
val commands : Egglog.Ast.command list Lazy.t

(** Hex MD5 of {!source}.  The {!Verdict} key folds it in, so a prelude
    edit invalidates cached verdicts. *)
val digest : string
