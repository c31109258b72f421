(** Runtime values of the Egglog engine.

    A value is either a primitive ([i64], [f64], [String], [bool], [unit]),
    a vector (the [Vec] container sort, whose elements may themselves be
    e-class references), or a reference to an e-class.

    E-class references become stale when classes are unified; {!canonicalize}
    rewrites a value so that every embedded e-class id is the canonical
    representative.  All hash tables keyed by values must only store
    canonical values. *)

type t =
  | I64 of int64
  | F64 of float
  | Str of string
  | Bool of bool
  | Unit
  | Vec of t array
  | Eclass of int  (** reference to an e-class, by id *)

let rec equal a b =
  match (a, b) with
  | I64 x, I64 y -> Int64.equal x y
  | F64 x, F64 y ->
    (* bitwise, so 0.0 and -0.0 differ; every NaN equals every NaN *)
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    || (Float.is_nan x && Float.is_nan y)
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Unit, Unit -> true
  | Vec x, Vec y -> elems_equal x y
  | Eclass x, Eclass y -> Int.equal x y
  | _ -> false

(* closed, so a comparison allocates nothing *)
and elems_equal x y = Array.length x = Array.length y && elems_from x y 0
and elems_from x y i = i = Array.length x || (equal x.(i) y.(i) && elems_from x y (i + 1))

let rec hash v =
  match v with
  | I64 x -> Hashtbl.hash (0, x)
  | F64 x -> Hashtbl.hash (1, x) (* hashes 0.0 and -0.0, and all NaNs, alike *)
  | Str x -> Hashtbl.hash (2, x)
  | Bool x -> Hashtbl.hash (3, x)
  | Unit -> Hashtbl.hash 4
  | Vec x -> Array.fold_left (fun acc e -> (acc * 31) + hash e) 5 x
  | Eclass x -> Hashtbl.hash (6, x)

(** [canonicalize uf v] replaces every e-class id inside [v] (including inside
    vectors, recursively) with its canonical representative. *)
let rec canonicalize uf v =
  match v with
  | Eclass id ->
    let id' = Union_find.find uf id in
    if id' = id then v else Eclass id'
  | Vec elems ->
    let changed = ref false in
    let elems' =
      Array.map
        (fun e ->
          let e' = canonicalize uf e in
          if e' != e then changed := true;
          e')
        elems
    in
    if !changed then Vec elems' else v
  | _ -> v

(** [is_canonical uf v] is true iff [canonicalize uf v] would be a no-op. *)
let rec is_canonical uf v =
  match v with
  | Eclass id -> Union_find.is_canonical uf id
  | Vec elems -> Array.for_all (is_canonical uf) elems
  | _ -> true

let rec pp ppf = function
  | I64 x -> Fmt.pf ppf "%Ld" x
  | F64 x -> Fmt.pf ppf "%h" x
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b
  | Unit -> Fmt.string ppf "()"
  | Vec elems -> Fmt.pf ppf "(vec-of %a)" Fmt.(array ~sep:sp pp) elems
  | Eclass id -> Fmt.pf ppf "$%d" id

let to_string v = Fmt.str "%a" pp v

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
