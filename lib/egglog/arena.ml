(** Flat-arena storage for e-graph function tables.

    Every value is encoded as one machine int (a {e code}): e-class [n]
    becomes the even code [2n]; any other value is interned into a
    side {!pool} at position [p] and becomes the odd code [2p+1].  A table
    row is then [arity + 1] consecutive ints (arguments followed by the
    output) in one flat array — the match/apply inner loop compares and
    hashes ints, never boxed values.

    Rows are append-only and stamped with the e-graph clock, so the stamp
    column is monotonically increasing: a seminaive delta ("rows newer
    than stamp [s]") is a binary search plus a suffix walk, and the old
    rows ("stamp ≤ [s]") are a prefix.  Rewriting a row's output kills the
    old row and appends a fresh copy, which keeps the invariant and makes
    the table its own seminaive journal.  Congruence
    lookups go through a single open-addressing hash over the key ints.
    {!compact} drops dead rows in place (order-preserving, so stamps stay
    sorted) and bumps [version], which invalidates any column indexes
    built over row numbers. *)

(* ------------------------------------------------------------------ *)
(* Value pool: primitive interning                                     *)
(* ------------------------------------------------------------------ *)

(* Int arrays by content: the element codes of pooled vectors, and the
   e-graph's cost-override keys. *)
module Codes_tbl = Hashtbl.Make (struct
  type t = int array

  let rec equal_from a b i = i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))
  let equal a b = Array.length a = Array.length b && equal_from a b 0
  let hash = Hashtbl.hash
end)

type pool = {
  mutable vals : Value.t array;
  mutable has_class : Bytes.t;
      (* per pooled value: does it embed an e-class id (a Vec containing
         Eclass elements)?  Those are the only pooled codes that can go
         stale after a union. *)
  mutable n_vals : int;
  intern_tbl : int Value.Tbl.t;
  vec_tbl : int Codes_tbl.t;
      (* element codes -> pool position of the vector of their values, for
         {!encode_vec}; an entry never goes stale, since a code always
         decodes to the same value *)
}

let create_pool () =
  {
    vals = Array.make 64 Value.Unit;
    has_class = Bytes.make 64 '\000';
    n_vals = 0;
    intern_tbl = Value.Tbl.create 64;
    vec_tbl = Codes_tbl.create 64;
  }

let rec value_has_class (v : Value.t) =
  match v with
  | Value.Eclass _ -> true
  | Value.Vec elems -> Array.exists value_has_class elems
  | _ -> false

let pool_add pool v =
  match Value.Tbl.find_opt pool.intern_tbl v with
  | Some p -> p
  | None ->
    let p = pool.n_vals in
    if p = Array.length pool.vals then begin
      let vals = Array.make (2 * p) Value.Unit in
      Array.blit pool.vals 0 vals 0 p;
      let hc = Bytes.make (2 * p) '\000' in
      Bytes.blit pool.has_class 0 hc 0 p;
      pool.vals <- vals;
      pool.has_class <- hc
    end;
    pool.vals.(p) <- v;
    if value_has_class v then Bytes.set pool.has_class p '\001';
    pool.n_vals <- p + 1;
    Value.Tbl.replace pool.intern_tbl v p;
    p

(** [encode pool v] is the code of [v].  The caller canonicalizes [v]
    first; a non-canonical value gets its own pool slot, which is safe
    (codes are re-canonicalized by {!canon_code}) but wasteful. *)
let encode pool (v : Value.t) =
  match v with
  | Value.Eclass id -> id * 2
  | v -> (2 * pool_add pool v) + 1

(** [decode pool c] is the value of code [c]. *)
let decode pool c = if c land 1 = 0 then Value.Eclass (c lsr 1) else pool.vals.(c lsr 1)

(** The code of the vector whose elements have codes [codes], as {!encode}
    of that vector gives it; a vector met before costs one lookup by its
    element codes.  [codes] is not kept. *)
let encode_vec pool (codes : int array) =
  match Codes_tbl.find pool.vec_tbl codes with
  | p -> (2 * p) + 1
  | exception Not_found ->
    let p = pool_add pool (Value.Vec (Array.map (decode pool) codes)) in
    Codes_tbl.add pool.vec_tbl (Array.copy codes) p;
    (2 * p) + 1

let is_class_code c = c land 1 = 0
let code_of_class id = id * 2
let class_of_code c = c lsr 1

(** Is code [c] canonical under [uf]? *)
let code_canonical uf pool c =
  if c land 1 = 0 then Union_find.is_canonical uf (c lsr 1)
  else
    Bytes.get pool.has_class (c lsr 1) = '\000'
    || Value.is_canonical uf pool.vals.(c lsr 1)

(** Canonicalize code [c] under [uf].  A pooled value is interned once,
    so one that is already canonical keeps its code. *)
let canon_code uf pool c =
  if c land 1 = 0 then Union_find.find uf (c lsr 1) * 2
  else if Bytes.get pool.has_class (c lsr 1) = '\000' then c
  else
    let v = pool.vals.(c lsr 1) in
    let v' = Value.canonicalize uf v in
    if v' == v then c else encode pool v'

let pool_memory_words pool = pool.n_vals * 4

(** Deep copy: the copy interns from the same codes on, independently. *)
let copy_pool pool =
  {
    vals = Array.copy pool.vals;
    has_class = Bytes.copy pool.has_class;
    n_vals = pool.n_vals;
    intern_tbl = Value.Tbl.copy pool.intern_tbl;
    vec_tbl = Codes_tbl.copy pool.vec_tbl;
  }

(* ------------------------------------------------------------------ *)
(* Flat tables                                                         *)
(* ------------------------------------------------------------------ *)

type table = {
  arity : int;
  width : int;  (* arity + 1: the output code is the last column *)
  mutable data : int array;  (* row [r] occupies [r*width .. r*width+arity] *)
  mutable stamps : int array;  (* monotonically increasing over rows *)
  mutable dead : Bytes.t;
  mutable n_rows : int;  (* appended rows, live and dead *)
  mutable n_dead : int;
  mutable slots : int array;  (* open addressing: 0 empty, -1 tombstone, r+1 occupied *)
  mutable mask : int;  (* slot count - 1 (power of two) *)
  mutable version : int;  (* bumped by compaction and clears: row numbers changed *)
  mutable remap : int array;  (* last compaction's old row -> new row (-1 dead) *)
  mutable remap_from : int;  (* the version that remap translates from (-1 none) *)
}

(* A table nobody wrote to allocates nothing: every such table shares
   these, and its first append allocates its own arrays
   ({!ensure_row_capacity}).  Nothing ever writes into them: the only
   writers are appends, which allocate first, and operations on a live
   row, which an empty table does not have. *)
let no_rows = [||]
let no_dead = Bytes.empty
let no_slots = [| 0 |]

let create ~arity =
  {
    arity;
    width = arity + 1;
    data = no_rows;
    stamps = no_rows;
    dead = no_dead;
    n_rows = 0;
    n_dead = 0;
    slots = no_slots;
    mask = 0;
    version = 0;
    remap = [||];
    remap_from = -1;
  }

(* still on the shared empty arrays *)
let unallocated tbl = tbl.stamps == no_rows

let n_live tbl = tbl.n_rows - tbl.n_dead
let n_dead tbl = tbl.n_dead
let n_rows tbl = tbl.n_rows
let version tbl = tbl.version
(* the hot row accessors skip bounds checks: row ids only ever come from
   the table's own [n_rows]/slots/indexes, never from user input *)
let is_dead tbl r = Bytes.unsafe_get tbl.dead r = '\001'
let stamp tbl r = Array.unsafe_get tbl.stamps r
let out_code tbl r = Array.unsafe_get tbl.data ((r * tbl.width) + tbl.arity)
let arg_code tbl r i = Array.unsafe_get tbl.data ((r * tbl.width) + i)

(** Code in column [c] of row [r]; column [arity] is the output. *)
let col_code tbl r c = Array.unsafe_get tbl.data ((r * tbl.width) + c)

(* FNV-1a over the key ints, kept non-negative *)
let hash_key (key : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length key - 1 do
    h := (!h lxor Array.unsafe_get key i) * 0x01000193
  done;
  !h land max_int

let hash_row tbl r =
  let h = ref 0x811c9dc5 in
  let base = r * tbl.width in
  for i = 0 to tbl.arity - 1 do
    h := (!h lxor Array.unsafe_get tbl.data (base + i)) * 0x01000193
  done;
  !h land max_int

(* The probes below are loops, not local recursive functions: without
   flambda a local function that captures a variable is allocated on
   every call. *)
let key_matches tbl r (key : int array) =
  let base = r * tbl.width in
  let i = ref 0 in
  while !i < tbl.arity && Array.unsafe_get tbl.data (base + !i) = Array.unsafe_get key !i do
    incr i
  done;
  !i = tbl.arity

(** Live row index for [key], or -1. *)
let find tbl (key : int array) =
  let mask = tbl.mask and slots = tbl.slots in
  let s = ref (hash_key key land mask) in
  let found = ref (-2) in
  while !found = -2 do
    match Array.unsafe_get slots !s with
    | 0 -> found := -1
    | -1 -> s := (!s + 1) land mask
    | v ->
      if (not (is_dead tbl (v - 1))) && key_matches tbl (v - 1) key then found := v - 1
      else s := (!s + 1) land mask
  done;
  !found

(* the slot holding live row [r], which must be in the hash *)
let slot_of tbl r what =
  let mask = tbl.mask in
  let s = ref (hash_row tbl r land mask) in
  while tbl.slots.(!s) <> r + 1 do
    if tbl.slots.(!s) = 0 then invalid_arg what;
    s := (!s + 1) land mask
  done;
  !s

(* claim a slot for row [r] (key already in [data]); caller guarantees the
   key is not mapped to a live row *)
let slot_insert tbl r =
  let mask = tbl.mask in
  let s = ref (hash_row tbl r land mask) in
  (* 0 is empty and -1 a tombstone: both are free *)
  while tbl.slots.(!s) > 0 do
    s := (!s + 1) land mask
  done;
  tbl.slots.(!s) <- r + 1

(* repoint the slot holding live row [old_r] at row [new_r] (same key) *)
let slot_repoint tbl old_r new_r =
  tbl.slots.(slot_of tbl old_r "Arena.slot_repoint: row not found") <- new_r + 1

(* tombstone the slot holding live row [r] *)
let slot_remove tbl r = tbl.slots.(slot_of tbl r "Arena.slot_remove: row not found") <- -1

let rehash tbl =
  (* grow slots to keep the load factor below 1/2 over live rows *)
  let needed = 2 * (n_live tbl + 1) in
  let size = ref (Array.length tbl.slots) in
  while !size < needed do
    size := !size * 2
  done;
  tbl.slots <- Array.make !size 0;
  tbl.mask <- !size - 1;
  for r = 0 to tbl.n_rows - 1 do
    if not (is_dead tbl r) then slot_insert tbl r
  done

let ensure_row_capacity tbl =
  let cap = Array.length tbl.stamps in
  if unallocated tbl then begin
    (* the first append allocates the table's own arrays, at the sizes
       doubling starts from *)
    tbl.data <- Array.make (max 8 (tbl.width * 8)) 0;
    tbl.stamps <- Array.make 8 0;
    tbl.dead <- Bytes.make 8 '\000';
    tbl.slots <- Array.make 16 0;
    tbl.mask <- 15
  end
  else if tbl.n_rows = cap then begin
    let cap' = cap * 2 in
    let data = Array.make (cap' * tbl.width) 0 in
    Array.blit tbl.data 0 data 0 (cap * tbl.width);
    let stamps = Array.make cap' 0 in
    Array.blit tbl.stamps 0 stamps 0 cap;
    let dead = Bytes.make cap' '\000' in
    Bytes.blit tbl.dead 0 dead 0 cap;
    tbl.data <- data;
    tbl.stamps <- stamps;
    tbl.dead <- dead
  end;
  (* slots: resize when the table (live + tombstones) is over half full; a
     full rehash also clears tombstones *)
  if 2 * (tbl.n_rows - tbl.n_dead + 1) > tbl.mask + 1 then rehash tbl

let kill tbl r =
  if not (is_dead tbl r) then begin
    slot_remove tbl r;
    Bytes.set tbl.dead r '\001';
    tbl.n_dead <- tbl.n_dead + 1
  end

(** Append a live row; [key] is copied into the arena.  The caller
    guarantees no live row currently has this key, and that [stamp] is
    larger than every stamp already in the table. *)
let append tbl (key : int array) out stamp =
  ensure_row_capacity tbl;
  let r = tbl.n_rows in
  let base = r * tbl.width in
  Array.blit key 0 tbl.data base tbl.arity;
  tbl.data.(base + tbl.arity) <- out;
  tbl.stamps.(r) <- stamp;
  tbl.n_rows <- r + 1;
  slot_insert tbl r;
  r

(** Rewrite the output of live row [r]: the old row is killed and a fresh
    copy with output [out] and stamp [stamp] is appended (so the delta
    suffix sees the rewrite).  Returns the new row. *)
let rewrite tbl r out stamp =
  ensure_row_capacity tbl;
  let r' = tbl.n_rows in
  Array.blit tbl.data (r * tbl.width) tbl.data (r' * tbl.width) tbl.arity;
  tbl.data.((r' * tbl.width) + tbl.arity) <- out;
  tbl.stamps.(r') <- stamp;
  tbl.n_rows <- r' + 1;
  slot_repoint tbl r r';
  Bytes.set tbl.dead r '\001';
  tbl.n_dead <- tbl.n_dead + 1;
  r'

(** Remove the live row with [key], if any.  Returns true if removed. *)
let remove tbl key =
  let r = find tbl key in
  if r < 0 then false
  else begin
    kill tbl r;
    true
  end

(** First row index with stamp strictly greater than [since] (dead rows
    included — callers skip them).  Stamps are sorted, so this is a binary
    search. *)
let delta_start tbl ~since =
  let lo = ref 0 and hi = ref tbl.n_rows in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if tbl.stamps.(mid) > since then hi := mid else lo := mid + 1
  done;
  !lo

(** Iterate live row indices in append (= stamp) order. *)
let iter_live tbl k =
  for r = 0 to tbl.n_rows - 1 do
    if not (is_dead tbl r) then k r
  done

(** Drop dead rows in place, preserving order (stamps stay sorted), and
    rebuild the hash.  Bumps [version]: row numbers have changed. *)
let compact tbl =
  if tbl.n_dead > 0 then begin
    let w = tbl.width in
    let remap = Array.make tbl.n_rows (-1) in
    let dst = ref 0 in
    for r = 0 to tbl.n_rows - 1 do
      if not (is_dead tbl r) then begin
        if !dst <> r then begin
          Array.blit tbl.data (r * w) tbl.data (!dst * w) w;
          tbl.stamps.(!dst) <- tbl.stamps.(r)
        end;
        remap.(r) <- !dst;
        incr dst
      end
    done;
    tbl.n_rows <- !dst;
    tbl.n_dead <- 0;
    Bytes.fill tbl.dead 0 (Bytes.length tbl.dead) '\000';
    rehash tbl;
    tbl.remap <- remap;
    tbl.remap_from <- tbl.version;
    tbl.version <- tbl.version + 1
  end

(** The last compaction's old-row -> new-row map (dead rows map to -1),
    when it translates exactly from [from_version] to the current
    numbering.  Lets column indexes renumber in place instead of
    rebuilding. *)
let remap_from tbl ~from_version =
  if tbl.remap_from = from_version && tbl.version = from_version + 1 then
    Some tbl.remap
  else None

(** Deep copy (int arrays only — this is what makes arena snapshots cheap
    compared to rehashing boxed keys).  A table nobody wrote to copies
    only its record. *)
let copy tbl =
  if unallocated tbl then { tbl with slots = no_slots }
  else
    {
      tbl with
      data = Array.copy tbl.data;
      stamps = Array.copy tbl.stamps;
      dead = Bytes.copy tbl.dead;
      slots = Array.copy tbl.slots;
    }

let memory_words tbl =
  (tbl.n_rows * (tbl.width + 2)) + Array.length tbl.slots
