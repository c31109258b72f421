(** One static verdict per ruleset; see the interface for the model. *)

module Diag = Egglog.Diag

type tier = Lint | Vet | Audit

type t = { lint : Diag.t list; vet : Vet.report; audit : Audit.report }

let diags v = function Lint -> v.lint | Vet -> v.vet.Vet.v_diags | Audit -> v.audit.Audit.a_diags

(* Bump when [t] or any type inside it changes shape: it is both the
   entry's format version and part of its key. *)
let version = "dialegg-verdict-1"

let key ~prelude ~registry (src : string) : string =
  Digest.to_hex (Digest.string (String.concat "\n" [ version; registry; prelude; src ]))

let hash_source (src : string) : string =
  Mlir.Registry.ensure_registered ();
  key ~prelude:Prelude.digest ~registry:(Mlir.Dialect.fingerprint ()) src

module Store = Disk_cache.Store (struct
  type nonrec t = t

  let ext = ".verdict"
  let version = version
end)

(* A memoized verdict, how it arrived, and the tiers this process has
   read from it. *)
type entry = { verdict : t; arrived : Disk_cache.status; mutable read : tier list }

let table : (string, entry) Hashtbl.t = Hashtbl.create 4

let find ?cache_dir ?file ?checked src =
  let key = hash_source src in
  match Hashtbl.find_opt table key with
  | Some e -> e
  | None ->
    let dir = match cache_dir with Some _ -> cache_dir | None -> Disk_cache.default_dir () in
    let verdict, arrived =
      match Option.bind dir (fun dir -> Store.find ~dir key) with
      | Some v -> (v, Disk_cache.Hit_disk)
      | None ->
        let c = match checked with Some c -> Lazy.force c | None -> Lint.check ?file src in
        let v = { lint = Lint.lint_checked c; vet = Vet.vet_checked c; audit = Audit.audit_checked c } in
        Option.iter (fun dir -> Store.add ~dir key v) dir;
        (v, Disk_cache.Computed)
    in
    let e = { verdict; arrived; read = [] } in
    Hashtbl.replace table key e;
    e

(* A verdict may have been computed under another file name; point every
   part's diagnostics at the caller's. *)
let retarget file v =
  if v.vet.Vet.v_file = file then v
  else
    let diags = List.map (fun d -> { d with Diag.file }) in
    {
      lint = diags v.lint;
      vet = { v.vet with Vet.v_file = file; v_diags = diags v.vet.Vet.v_diags };
      audit = { v.audit with Audit.a_file = file; a_diags = diags v.audit.Audit.a_diags };
    }

let read ?cache_dir ?file ?checked ~tiers src =
  let e = find ?cache_dir ?file ?checked src in
  let v = retarget file e.verdict in
  let status tier =
    if List.mem tier e.read then Disk_cache.Hit_memory
    else begin
      e.read <- tier :: e.read;
      e.arrived
    end
  in
  let rec walk = function
    | [] -> []
    | tier :: rest when not (List.mem tier tiers) -> walk rest
    | tier :: rest ->
      let s = status tier in
      (tier, s) :: (if Diag.has_errors (diags v tier) then [] else walk rest)
  in
  (v, walk [ Lint; Vet; Audit ])
