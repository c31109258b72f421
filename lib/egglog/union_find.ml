(** Union-find (disjoint sets) over dense integer identifiers.

    The e-graph allocates e-class ids densely from 0; this structure tracks
    which ids have been unified.  Uses path halving and union by rank.  The
    structure grows on demand. *)

type t = {
  mutable parent : int array;
  mutable rank : int array;
  mutable size : int; (* number of allocated ids *)
}

let create ?(capacity = 64) () =
  {
    parent = Array.init capacity Fun.id;
    rank = Array.make capacity 0;
    size = 0;
  }

(** Number of ids allocated so far. *)
let size t = t.size

let ensure_capacity t n =
  let cap = Array.length t.parent in
  if n > cap then begin
    let new_cap = max n (cap * 2) in
    let parent = Array.init new_cap (fun i -> if i < cap then t.parent.(i) else i) in
    let rank = Array.make new_cap 0 in
    Array.blit t.rank 0 rank 0 cap;
    t.parent <- parent;
    t.rank <- rank
  end

(** [fresh t] allocates a new id that is its own representative. *)
let fresh t =
  let id = t.size in
  ensure_capacity t (id + 1);
  t.parent.(id) <- id;
  t.rank.(id) <- 0;
  t.size <- id + 1;
  id

(* the root of [x], halving the path: closed, so a call allocates nothing *)
let rec root parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let gp = parent.(p) in
    parent.(x) <- gp;
    root parent gp
  end

(** [find t x] returns the canonical representative of [x]'s set.
    Raises [Invalid_argument] if [x] was never allocated. *)
let find t x =
  if x < 0 || x >= t.size then invalid_arg "Union_find.find: id out of range";
  root t.parent x

(** [union t a b] merges the sets of [a] and [b] and returns the canonical
    representative of the merged set. *)
let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    let ra, rb = if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb) in
    t.parent.(rb) <- ra;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    ra
  end

(** [same t a b] is true iff [a] and [b] are in the same set. *)
let same t a b = find t a = find t b

(** [is_canonical t x] is true iff [x] is the representative of its set. *)
let is_canonical t x = find t x = x

(** Deep copy (for [push]/[pop] snapshots). *)
let copy t =
  {
    parent = Array.copy t.parent;
    rank = Array.copy t.rank;
    size = t.size;
  }
