(** The one on-disk entry store under the static-tier and serving
    caches.

    Two kinds of content-addressed entry live next to each other in one
    directory: a ruleset's static verdict ({!Verdict}, [KEY.verdict])
    and the optimization daemon's results ([Serve.Cache],
    [KEY.result]).  Each kind is a {!Store} over its extension, format
    version and payload type, so the guarantees are uniform:

    - one default directory resolution ([$DIALEGG_VET_CACHE], empty
      string = disabled, otherwise a [dialegg-vet-cache] directory under
      the system temp dir);
    - one entry layout: the format version on a line of its own, then
      the key and the payload, marshalled;
    - corruption-tolerant reads: a torn, garbage, stale-format or
      cross-linked entry (a valid entry renamed onto another key's file
      name) is deleted and read as a miss, so a damaged cache costs a
      recompute, never a wrong answer;
    - crash-safe commits: same-directory temp file, fsync of the data,
      atomic rename, then fsync of the parent directory, so a committed
      entry survives a power cut and a torn write is never observable
      under the final name;
    - a size cap with least-recently-used eviction: a hit re-stamps its
      entry, and after every commit the directory is pruned back under
      [$DIALEGG_CACHE_MAX_MB] (default 256 MB), deleting oldest-mtime
      entries first.  Only files with a known extension ([.verdict],
      [.result], and the retired [.vet] and [.audit], so entries an
      older build left still age out) are ever counted or deleted —
      foreign files in the directory are left alone. *)

(** [$DIALEGG_VET_CACHE] resolution: [Some dir] to cache on disk there,
    [None] when disabled ([DIALEGG_VET_CACHE=""]). *)
val default_dir : unit -> string option

(** The eviction threshold in bytes: [$DIALEGG_CACHE_MAX_MB] megabytes
    (default 256; values [<= 0] or unparseable fall back to the
    default). *)
val max_bytes : unit -> int

(** [prune ~dir ()] deletes the oldest cache entries (by mtime, known
    extensions only) until the directory's cache footprint is back under
    [max_bytes] (or [~max]).  Never raises. *)
val prune : ?max:int -> dir:string -> unit -> unit

(** One kind of entry.  Bump [version] whenever [t] or anything inside
    it changes shape: an entry of another version is a miss, never a
    mis-deserialized value. *)
module type ENTRY = sig
  type t

  (** The file extension, one of the known ones. *)
  val ext : string

  (** The format version; a single line. *)
  val version : string
end

module type STORE = sig
  include ENTRY

  (** [find ~dir key] reads [dir/KEY.ext] when its version and its
      embedded key are this store's and [key], and re-stamps it for the
      LRU.  Any other content, or a failed read, deletes the file and is
      [None]. *)
  val find : dir:string -> string -> t option

  (** [add ~dir key v] durably commits [v] as [dir/KEY.ext], creating
      [dir] if needed, then prunes [dir] under the size cap.
      Best-effort: any failure (read-only media, a full disk) is
      swallowed — a cache that cannot persist degrades to a recompute,
      never to an error. *)
  val add : dir:string -> string -> t -> unit
end

module Store (E : ENTRY) : STORE with type t = E.t

(** Where a memoized value came from. *)
type status = Hit_memory | Hit_disk | Computed

(** ["hit (memory)"], ["hit (disk)"] or ["computed"]. *)
val status_name : status -> string
