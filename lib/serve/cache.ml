(** Content-addressed per-function result cache; see the interface for
    the model. *)

(* Bump on any change to the key normalization, the entry layout or the
   output a config gives (3: the entry layout is {!Dialegg.Disk_cache}'s):
   old entries must never satisfy new requests. *)
let format_version = "dialegg-result-cache-3"

type entry = { ce_output : string; ce_degraded : int }

module Store = Dialegg.Disk_cache.Store (struct
  type t = entry

  let ext = ".result"
  let version = format_version
end)

type mem_slot = { ms_entry : entry; mutable ms_tick : int }

type t = {
  dir : string option;
  capacity : int;
  mem : (string, mem_slot) Hashtbl.t;
  mutable tick : int;
}

let create ?(capacity = 512) ~dir () =
  { dir; capacity = Stdlib.max 0 capacity; mem = Hashtbl.create 64; tick = 0 }

let key ~(config : Dialegg.Pipeline.config) ~src =
  (* Everything that can steer the output bytes participates; the two
     fields that cannot are pinned so they never fragment the cache:
     [inject] (faults are for tests, and a faulted result must not be
     memoized anyway — the daemon skips [add] for faulted jobs) and
     [vet_cache_dir] (where verdicts are memoized does not change
     them). *)
  let normalized =
    { config with Dialegg.Pipeline.inject = None; vet_cache_dir = None }
  in
  Digest.to_hex
    (Digest.string
       (format_version ^ "\n" ^ Marshal.to_string normalized [] ^ "\x00" ^ src))

(* ------------------------------------------------------------------ *)
(* Memory tier                                                         *)
(* ------------------------------------------------------------------ *)

let bump t slot =
  t.tick <- t.tick + 1;
  slot.ms_tick <- t.tick

let evict_if_full t =
  if Hashtbl.length t.mem > t.capacity then begin
    (* O(n) victim scan; n is the (small, bounded) hot set *)
    let victim =
      Hashtbl.fold
        (fun k slot acc ->
          match acc with
          | Some (_, best) when best <= slot.ms_tick -> acc
          | _ -> Some (k, slot.ms_tick))
        t.mem None
    in
    match victim with Some (k, _) -> Hashtbl.remove t.mem k | None -> ()
  end

let mem_add t k entry =
  if t.capacity > 0 then begin
    Hashtbl.replace t.mem k { ms_entry = entry; ms_tick = 0 };
    bump t (Hashtbl.find t.mem k);
    evict_if_full t
  end

(* ------------------------------------------------------------------ *)
(* The two-level interface                                             *)
(* ------------------------------------------------------------------ *)

let find t k =
  match Hashtbl.find_opt t.mem k with
  | Some slot ->
    bump t slot;
    Some (slot.ms_entry, Protocol.Sv_hit_mem)
  | None -> (
    match Option.bind t.dir (fun dir -> Store.find ~dir k) with
    | Some entry ->
      mem_add t k entry;
      Some (entry, Protocol.Sv_hit_disk)
    | None -> None)

let add t k entry =
  mem_add t k entry;
  Option.iter (fun dir -> Store.add ~dir k entry) t.dir

let stats t =
  let disk_entries, disk_bytes =
    match t.dir with
    | None -> (0, 0)
    | Some dir -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> (0, 0)
      | names ->
        Array.fold_left
          (fun ((n, b) as acc) name ->
            if Filename.check_suffix name Store.ext then
              match Unix.stat (Filename.concat dir name) with
              | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
                (n + 1, b + st_size)
              | _ | (exception Unix.Unix_error _) -> acc
            else acc)
          (0, 0) names)
  in
  (Hashtbl.length t.mem, disk_entries, disk_bytes)

let corrupt_disk_entries t =
  match t.dir with
  | None -> 0
  | Some dir -> (
    match Sys.readdir dir with
    | exception Sys_error _ -> 0
    | names ->
      Array.fold_left
        (fun n name ->
          if not (Filename.check_suffix name Store.ext) then n
          else
            let path = Filename.concat dir name in
            match Unix.stat path with
            | { Unix.st_kind = Unix.S_REG; st_size; _ } when st_size > 4 -> (
              (* keep a valid-looking prefix, drop the tail: a torn write *)
              match Unix.openfile path [ O_WRONLY ] 0 with
              | fd ->
                (try Unix.ftruncate fd (st_size / 2)
                 with Unix.Unix_error _ -> ());
                (try Unix.close fd with Unix.Unix_error _ -> ());
                n + 1
              | exception Unix.Unix_error _ -> n)
            | _ | (exception Unix.Unix_error _) -> n)
        0 names)
