(** Content-addressed per-function result cache; see the interface for
    the model. *)

(* Bump on any change to the key normalization, the entry layout or the
   output a config gives (2: saturation applies every match it finds, so
   a run cut by its iteration budget can extract another program than
   version 1 did): old entries must never satisfy new requests. *)
let format_version = "dialegg-result-cache-2"
let disk_magic = format_version ^ "\n"

type entry = { ce_output : string; ce_degraded : int }

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
       (disk_magic ^ Marshal.to_string normalized [] ^ "\x00" ^ src))

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
(* Disk tier                                                           *)
(* ------------------------------------------------------------------ *)

let entry_file k = k ^ ".result"

let disk_path t k =
  match t.dir with
  | None -> None
  | Some d -> Some (Filename.concat d (entry_file k))

let disk_read t k =
  match disk_path t k with
  | None -> None
  | Some path -> (
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic -> (
      let parse () =
        let magic = really_input_string ic (String.length disk_magic) in
        if magic <> disk_magic then failwith "format version mismatch";
        let stored_key, output, degraded =
          (Marshal.from_channel ic : string * string * int)
        in
        (* a renamed / collided file must not satisfy the wrong key *)
        if stored_key <> k then failwith "key mismatch";
        { ce_output = output; ce_degraded = degraded }
      in
      match Fun.protect ~finally:(fun () -> close_in_noerr ic) parse with
      | entry ->
        Dialegg.Disk_cache.touch path;
        Some entry
      | exception _ ->
        (* torn, truncated, corrupt, or stale-format: delete and miss —
           recomputing is always safe, serving bad bytes never is *)
        (try Sys.remove path with Sys_error _ -> ());
        None))

let disk_write t k entry =
  match t.dir with
  | None -> ()
  | Some dir ->
    Dialegg.Disk_cache.write_entry ~dir ~file:(entry_file k) (fun oc ->
        output_string oc disk_magic;
        Marshal.to_channel oc
          ((k, entry.ce_output, entry.ce_degraded) : string * string * int)
          [])

(* ------------------------------------------------------------------ *)
(* The two-level interface                                             *)
(* ------------------------------------------------------------------ *)

let find t k =
  match Hashtbl.find_opt t.mem k with
  | Some slot ->
    bump t slot;
    Some (slot.ms_entry, Protocol.Sv_hit_mem)
  | None -> (
    match disk_read t k with
    | Some entry ->
      mem_add t k entry;
      Some (entry, Protocol.Sv_hit_disk)
    | None -> None)

let add t k entry =
  mem_add t k entry;
  disk_write t k entry

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
            if Filename.check_suffix name ".result" then
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
          if not (Filename.check_suffix name ".result") then n
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
