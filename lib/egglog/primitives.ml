(** Built-in primitive operations of the Egglog language.

    Primitives are pure functions over {!Value.t}; they never touch the
    e-graph.  Arithmetic comparison operators are polymorphic over [i64] and
    [f64], matching Egglog's behaviour closely enough for the DialEgg
    subset.  Unknown names are not primitives — the interpreter then treats
    the application as a function-table operation. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

open Value

let as_f64 = function F64 x -> x | v -> error "expected f64, got %a" Value.pp v

let num2 name fi ff a b =
  match (a, b) with
  | I64 x, I64 y -> fi x y
  | F64 x, F64 y -> ff x y
  | _ -> error "%s: mixed or non-numeric operands (%a, %a)" name Value.pp a Value.pp b

let arith2 name fi ff a b =
  num2 name (fun x y -> I64 (fi x y)) (fun x y -> F64 (ff x y)) a b

let cmp2 name fi ff a b =
  num2 name (fun x y -> Bool (fi x y)) (fun x y -> Bool (ff x y)) a b

let i64_pow base expn =
  if Int64.compare expn 0L < 0 then error "pow: negative exponent %Ld" expn;
  let rec go acc base expn =
    if Int64.equal expn 0L then acc
    else
      go
        (if Int64.rem expn 2L = 1L then Int64.mul acc base else acc)
        (Int64.mul base base) (Int64.div expn 2L)
  in
  go 1L base expn

let i64_log2 n =
  if Int64.compare n 0L <= 0 then error "log2: non-positive argument %Ld" n;
  let rec go acc n = if Int64.compare n 1L <= 0 then acc else go (acc + 1) (Int64.shift_right_logical n 1) in
  Int64.of_int (go 0 n)

let checked_div name a b = if Int64.equal b 0L then error "%s: division by zero" name else Int64.div a b
let checked_rem name a b = if Int64.equal b 0L then error "%s: modulo by zero" name else Int64.rem a b

(** [is_primitive name] is true if [name] denotes a primitive operation. *)
let is_primitive name =
  match name with
  | "+" | "-" | "*" | "/" | "%" | "min" | "max" | "abs" | "neg"
  | "<" | "<=" | ">" | ">=" | "!=" | "==" | "log2" | "pow" | "sqrt"
  | "<<" | ">>" | "&" | "|" | "^" | "not" | "and" | "or" | "xor"
  | "to-f64" | "to-i64" | "to-string" | "f64-to-i64-bits" | "i64-bits-to-f64"
  | "vec-of" | "vec-empty" | "vec-push" | "vec-pop" | "vec-get" | "vec-length"
  | "vec-append" | "vec-contains" | "vec-set"
  | "str-concat" | "str-length" -> true
  | _ -> false

(** [apply name args] evaluates primitive [name] on [args].
    Raises {!Error} on sort mismatch or invalid input (e.g. division by
    zero, out-of-bounds [vec-get]); the rule engine treats such errors as a
    failed premise. *)
let apply name (args : Value.t list) : Value.t =
  match (name, args) with
  | "+", [ Str a; Str b ] -> Str (a ^ b)
  | "+", [ a; b ] -> arith2 "+" Int64.add Float.add a b
  | "-", [ a ] -> (match a with I64 x -> I64 (Int64.neg x) | _ -> F64 (-.as_f64 a))
  | "-", [ a; b ] -> arith2 "-" Int64.sub Float.sub a b
  | "*", [ a; b ] -> arith2 "*" Int64.mul Float.mul a b
  | "/", [ a; b ] -> arith2 "/" (checked_div "/") Float.div a b
  | "%", [ a; b ] -> arith2 "%" (checked_rem "%") Float.rem a b
  | "min", [ a; b ] -> arith2 "min" Int64.min Float.min a b
  | "max", [ a; b ] -> arith2 "max" Int64.max Float.max a b
  | "abs", [ I64 x ] -> I64 (Int64.abs x)
  | "abs", [ F64 x ] -> F64 (Float.abs x)
  | "neg", [ I64 x ] -> I64 (Int64.neg x)
  | "neg", [ F64 x ] -> F64 (-.x)
  | "<", [ a; b ] -> cmp2 "<" (fun x y -> Int64.compare x y < 0) (fun x y -> x < y) a b
  | "<=", [ a; b ] -> cmp2 "<=" (fun x y -> Int64.compare x y <= 0) (fun x y -> x <= y) a b
  | ">", [ a; b ] -> cmp2 ">" (fun x y -> Int64.compare x y > 0) (fun x y -> x > y) a b
  | ">=", [ a; b ] -> cmp2 ">=" (fun x y -> Int64.compare x y >= 0) (fun x y -> x >= y) a b
  | "!=", [ a; b ] -> Bool (not (Value.equal a b))
  | "==", [ a; b ] -> Bool (Value.equal a b)
  | "log2", [ I64 n ] -> I64 (i64_log2 n)
  | "pow", [ I64 b; I64 e ] -> I64 (i64_pow b e)
  | "pow", [ F64 b; F64 e ] -> F64 (Float.pow b e)
  | "sqrt", [ F64 x ] -> F64 (Float.sqrt x)
  | "<<", [ I64 a; I64 b ] -> I64 (Int64.shift_left a (Int64.to_int b))
  | ">>", [ I64 a; I64 b ] -> I64 (Int64.shift_right a (Int64.to_int b))
  | "&", [ I64 a; I64 b ] -> I64 (Int64.logand a b)
  | "|", [ I64 a; I64 b ] -> I64 (Int64.logor a b)
  | "^", [ I64 a; I64 b ] -> I64 (Int64.logxor a b)
  | "not", [ Bool a ] -> Bool (not a)
  | "and", [ Bool a; Bool b ] -> Bool (a && b)
  | "or", [ Bool a; Bool b ] -> Bool (a || b)
  | "xor", [ Bool a; Bool b ] -> Bool (a <> b)
  | "to-f64", [ I64 x ] -> F64 (Int64.to_float x)
  | "to-i64", [ F64 x ] -> I64 (Int64.of_float x)
  | "to-string", [ v ] -> Str (Value.to_string v)
  | "f64-to-i64-bits", [ F64 x ] -> I64 (Int64.bits_of_float x)
  | "i64-bits-to-f64", [ I64 x ] -> F64 (Int64.float_of_bits x)
  | "vec-of", elems -> Vec (Array.of_list elems)
  | "vec-empty", [] -> Vec [||]
  | "vec-push", [ Vec v; x ] -> Vec (Array.append v [| x |])
  | "vec-pop", [ Vec v ] ->
    if Array.length v = 0 then error "vec-pop: empty vector"
    else Vec (Array.sub v 0 (Array.length v - 1))
  | "vec-get", [ Vec v; I64 i ] ->
    let i = Int64.to_int i in
    if i < 0 || i >= Array.length v then error "vec-get: index %d out of bounds" i
    else v.(i)
  | "vec-set", [ Vec v; I64 i; x ] ->
    let i = Int64.to_int i in
    if i < 0 || i >= Array.length v then error "vec-set: index %d out of bounds" i
    else begin
      let v' = Array.copy v in
      v'.(i) <- x;
      Vec v'
    end
  | "vec-length", [ Vec v ] -> I64 (Int64.of_int (Array.length v))
  | "vec-append", [ Vec a; Vec b ] -> Vec (Array.append a b)
  | "vec-contains", [ Vec v; x ] -> Bool (Array.exists (Value.equal x) v)
  | "str-concat", [ Str a; Str b ] -> Str (a ^ b)
  | "str-length", [ Str s ] -> I64 (Int64.of_int (String.length s))
  | _, _ -> error "primitive %s: invalid arguments (%a)" name Fmt.(list ~sep:comma Value.pp) args

exception Overflow

let neg_sign x = Int64.compare x 0L < 0

(** [apply_checked name args] is [apply name args], except that i64 [+],
    [-] and [*] raise {!Overflow} instead of wrapping. *)
let apply_checked name (args : Value.t list) : Value.t =
  match (name, args) with
  | "+", [ I64 a; I64 b ] ->
    let s = Int64.add a b in
    (* overflow iff both operands have the sign the sum lacks *)
    if neg_sign (Int64.logand (Int64.logxor a s) (Int64.logxor b s)) then raise Overflow;
    I64 s
  | "-", [ I64 a; I64 b ] ->
    let d = Int64.sub a b in
    if neg_sign (Int64.logand (Int64.logxor a b) (Int64.logxor a d)) then raise Overflow;
    I64 d
  | "-", [ I64 a ] when Int64.equal a Int64.min_int -> raise Overflow
  | "*", [ I64 a; I64 b ] ->
    let p = Int64.mul a b in
    if
      (not (Int64.equal a 0L))
      && ((not (Int64.equal (Int64.div p a) b))
         || (Int64.equal a (-1L) && Int64.equal b Int64.min_int))
    then raise Overflow;
    I64 p
  | _ -> apply name args
