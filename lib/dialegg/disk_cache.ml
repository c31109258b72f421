(** The one typed entry store under the verdict and serve disk caches;
    see the interface for the model. *)

let cache_exts = [ ".verdict"; ".result"; ".vet"; ".audit" ]

let default_dir () =
  match Sys.getenv_opt "DIALEGG_VET_CACHE" with
  | Some "" -> None (* disk cache disabled *)
  | Some d -> Some d
  | None ->
    Some (Filename.concat (Filename.get_temp_dir_name ()) "dialegg-vet-cache")

let default_max_mb = 256

let max_bytes () =
  let mb =
    match Sys.getenv_opt "DIALEGG_CACHE_MAX_MB" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> default_max_mb)
    | None -> default_max_mb
  in
  mb * 1024 * 1024

let is_cache_entry name =
  List.exists (fun ext -> Filename.check_suffix name ext) cache_exts

(* Oldest-mtime-first eviction.  mtime is our recency signal: a hit
   re-touches its entry ({!Store.find}), so a pruned entry really is the
   least recently useful one. *)
let prune ?max ~dir () =
  try
    let cap = match max with Some m -> m | None -> max_bytes () in
    let entries =
      Array.to_list (Sys.readdir dir)
      |> List.filter_map (fun name ->
             if not (is_cache_entry name) then None
             else
               let path = Filename.concat dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                 Some (path, st_size, st_mtime)
               | _ -> None
               | exception Unix.Unix_error _ -> None)
    in
    let total = List.fold_left (fun a (_, s, _) -> a + s) 0 entries in
    if total > cap then begin
      (* oldest first; break mtime ties by path so eviction is stable *)
      let oldest =
        List.sort
          (fun (p1, _, t1) (p2, _, t2) ->
            match compare (t1 : float) t2 with 0 -> compare p1 p2 | c -> c)
          entries
      in
      let excess = ref (total - cap) in
      List.iter
        (fun (path, size, _) ->
          if !excess > 0 then
            (* a concurrent pruner may have unlinked the entry between
               our readdir and here: ENOENT means the bytes are gone
               either way, so it still counts as freed.  Any other
               failure (permissions, read-only media) must NOT be
               credited, or we'd stop early with the cache still over
               its cap. *)
            match Unix.unlink path with
            | () -> excess := !excess - size
            | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
              excess := !excess - size
            | exception Unix.Unix_error _ -> ())
        oldest
    end
  with Sys_error _ | Unix.Unix_error _ -> ()

(* Best-effort (read-only media). *)
let touch path = try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ()

let fsync_dir dir =
  (* best-effort: some filesystems refuse to fsync a directory fd *)
  try
    let d = Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close d with Unix.Unix_error _ -> ())
      (fun () -> Unix.fsync d)
  with Unix.Unix_error _ -> ()

let write_entry ~dir ~file emit =
  try
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    (* same directory as the destination so the rename cannot cross a
       filesystem boundary (rename is only atomic within one) *)
    let tmp = Filename.temp_file ~temp_dir:dir ".entry" ".tmp" in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          emit oc;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc));
      Sys.rename tmp (Filename.concat dir file)
    with
    | () ->
      fsync_dir dir;
      prune ~dir ()
    | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  with _ -> ()

module type ENTRY = sig
  type t

  val ext : string
  val version : string
end

module type STORE = sig
  include ENTRY

  val find : dir:string -> string -> t option
  val add : dir:string -> string -> t -> unit
end

module Store (E : ENTRY) = struct
  include E

  let header = version ^ "\n"

  let find ~dir key =
    let path = Filename.concat dir (key ^ ext) in
    let read ic =
      if really_input_string ic (String.length header) <> header then None
      else
        let stored, v = (Marshal.from_channel ic : string * t) in
        (* a renamed or collided file must not satisfy the wrong key *)
        if String.equal stored key then Some v else None
    in
    match In_channel.with_open_bin path read with
    | Some _ as hit ->
      touch path;
      hit
    | None | (exception _) ->
      (* torn, garbage, stale-format or cross-linked: delete and miss —
         recomputing is always safe, reading bad bytes never is *)
      (try Sys.remove path with Sys_error _ -> ());
      None

  let add ~dir key v =
    write_entry ~dir ~file:(key ^ ext) (fun oc ->
        output_string oc header;
        Marshal.to_channel oc ((key, v) : string * t) [])
end

type status = Hit_memory | Hit_disk | Computed

let status_name = function
  | Hit_memory -> "hit (memory)"
  | Hit_disk -> "hit (disk)"
  | Computed -> "computed"
