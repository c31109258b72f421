(** DialEgg's pre-defined Egglog declarations: the builtin MLIR types and
    attributes, the [Value] / [Block] / [Region] encodings, and the common
    operations of the [func], [arith], [math], [scf], [tensor] and [linalg]
    dialects (paper §4).

    Users extend this with their own declarations; anything not declared is
    handled opaquely by the translation layer.

    Encoding conventions (enforced by {!Sigs}):
    - an operation [d.op] with [k] operands is an Egglog function [d_op]
      (or [d_op_k] for variadic ops) whose parameters are, in order: the
      [k] operands ([Op] each), one [AttrPair] per named attribute (sorted
      by attribute name), one [Region] per region, and a final [Type] iff
      the operation has exactly one result;
    - values that are not results of translated ops (block arguments,
      opaque-op results) are [(Value id type)] e-nodes with unique ids. *)

let source =
  {|
; ---------- sorts ----------
(sort Type)
(sort IntVec (Vec i64))
(sort TypeVec (Vec Type))
(sort Attr)
(sort AttrVec (Vec Attr))
(sort AttrPair)
(sort Op)
(sort OpVec (Vec Op))
(datatype Block (Blk OpVec))
(sort BlockVec (Vec Block))
(datatype Region (Reg BlockVec))

; ---------- builtin types ----------
(function I1 () Type)
(function I8 () Type)
(function I16 () Type)
(function I32 () Type)
(function I64 () Type)
(function IntegerType (i64) Type)  ; other widths
(function F16 () Type)
(function F32 () Type)
(function F64 () Type)
(function IndexT () Type)
(function NoneType () Type)
(function ComplexType (Type) Type)
(function TupleType (TypeVec) Type)
(function RankedTensor (IntVec Type) Type)
(function UnrankedTensor (Type) Type)
(function MemRefType (IntVec Type) Type)
(function FunctionType (TypeVec TypeVec) Type)
(function OpaqueType (String String) Type)

; ---------- builtin attributes ----------
(function IntegerAttr (i64 Type) Attr)
(function FloatAttr (f64 Type) Attr)
(function StringAttr (String) Attr)
(function BoolAttr (bool) Attr)
(function ArrayAttr (AttrVec) Attr)
(function SymbolRefAttr (String) Attr)
(function TypeAttr (Type) Attr)
(function UnitAttr () Attr)
(function OpaqueAttr (String String) Attr)
(datatype FastMathFlags
  (none) (fast) (nnan) (ninf) (nsz) (arcp) (contract) (afn) (reassoc))
(function arith_fastmath (FastMathFlags) Attr)
(function NamedAttr (String Attr) AttrPair)

; ---------- values ----------
(function Value (i64 Type) Op :cost 0)

; type-of: the result type of any translated operation (populated by
; auto-generated rules, one per operation declaration)
(function type-of (Op) Type)

; dimension analysis helpers (paper listing 6)
(function nrows (Type) i64)
(function ncols (Type) i64)
(rule ((= ?t (RankedTensor ?shape ?))
       (>= (vec-length ?shape) 2))
      ((set (nrows ?t) (vec-get ?shape 0))
       (set (ncols ?t) (vec-get ?shape 1))))

; ---------- arith ----------
(function arith_constant (AttrPair Type) Op :cost 1)
(function arith_addi (Op Op Type) Op :cost 1)
(function arith_subi (Op Op Type) Op :cost 1)
(function arith_muli (Op Op Type) Op :cost 3)
(function arith_divsi (Op Op Type) Op :cost 22)
(function arith_divui (Op Op Type) Op :cost 22)
(function arith_remsi (Op Op Type) Op :cost 22)
(function arith_remui (Op Op Type) Op :cost 22)
(function arith_shli (Op Op Type) Op :cost 1)
(function arith_shrsi (Op Op Type) Op :cost 1)
(function arith_shrui (Op Op Type) Op :cost 1)
(function arith_andi (Op Op Type) Op :cost 1)
(function arith_ori (Op Op Type) Op :cost 1)
(function arith_xori (Op Op Type) Op :cost 1)
(function arith_minsi (Op Op Type) Op :cost 1)
(function arith_maxsi (Op Op Type) Op :cost 1)
(function arith_minui (Op Op Type) Op :cost 1)
(function arith_maxui (Op Op Type) Op :cost 1)
(function arith_cmpi (Op Op AttrPair Type) Op :cost 1)
(function arith_addf (Op Op AttrPair Type) Op :cost 3)
(function arith_subf (Op Op AttrPair Type) Op :cost 3)
(function arith_mulf (Op Op AttrPair Type) Op :cost 4)
(function arith_divf (Op Op AttrPair Type) Op :cost 18)
(function arith_maximumf (Op Op AttrPair Type) Op :cost 3)
(function arith_minimumf (Op Op AttrPair Type) Op :cost 3)
(function arith_negf (Op AttrPair Type) Op :cost 3)
(function arith_cmpf (Op Op AttrPair AttrPair Type) Op :cost 3)
(function arith_select (Op Op Op Type) Op :cost 1)
(function arith_index_cast (Op Type) Op :cost 1)
(function arith_sitofp (Op Type) Op :cost 2)
(function arith_fptosi (Op Type) Op :cost 2)
(function arith_truncf (Op Type) Op :cost 2)
(function arith_extf (Op Type) Op :cost 2)
(function arith_bitcast (Op Type) Op :cost 1)

; ---------- math ----------
(function math_sqrt (Op AttrPair Type) Op :cost 25)
(function math_rsqrt (Op AttrPair Type) Op :cost 9)
(function math_sin (Op AttrPair Type) Op :cost 40)
(function math_cos (Op AttrPair Type) Op :cost 40)
(function math_exp (Op AttrPair Type) Op :cost 30)
(function math_log (Op AttrPair Type) Op :cost 30)
(function math_log2 (Op AttrPair Type) Op :cost 30)
(function math_absf (Op AttrPair Type) Op :cost 2)
(function math_tanh (Op AttrPair Type) Op :cost 30)
(function math_powf (Op Op AttrPair Type) Op :cost 70)
(function math_fma (Op Op Op AttrPair Type) Op :cost 4)

; ---------- func ----------
(function func_return_0 () Op :cost 1)
(function func_return_1 (Op) Op :cost 1)
(function func_call_0 (AttrPair Type) Op :cost 12)
(function func_call_1 (Op AttrPair Type) Op :cost 12)
(function func_call_2 (Op Op AttrPair Type) Op :cost 12)
(function func_call_3 (Op Op Op AttrPair Type) Op :cost 12)

; ---------- scf ----------
(function scf_yield_0 () Op :cost 1)
(function scf_yield_1 (Op) Op :cost 1)
(function scf_for_3 (Op Op Op Region) Op :cost 3)        ; no iteration arguments
(function scf_for_4 (Op Op Op Op Region Type) Op :cost 3) ; one iteration argument
(function scf_if (Op Region Region Type) Op :cost 2)

; ---------- tensor ----------
(function tensor_empty (Type) Op :cost 10)
(function tensor_extract_2 (Op Op Type) Op :cost 4)
(function tensor_extract_3 (Op Op Op Type) Op :cost 4)
(function tensor_insert_3 (Op Op Op Type) Op :cost 4)
(function tensor_insert_4 (Op Op Op Op Type) Op :cost 4)
(function tensor_dim (Op Op Type) Op :cost 1)
(function tensor_splat (Op Type) Op :cost 10)

; ---------- linalg ----------
(function linalg_matmul (Op Op Op Type) Op :cost 10)
(function linalg_fill (Op Op Type) Op :cost 10)
(function linalg_add (Op Op Op Type) Op :cost 10)
|}

(** Parsed prelude commands (parsed once, lazily). *)
let commands = lazy (Egglog.Parser.parse_program source)

(** Hex MD5 of {!source}. *)
let digest = Digest.to_hex (Digest.string source)
