(* dialegg-check: static checker for DialEgg Egglog rule files.

   Reads the pipeline's three fail-fast tiers from each file's verdict
   ({!Dialegg.Verdict}), in the pipeline's order:

   - lint: the sort checker seeded with the prelude declarations, plus
     the dialect lints (dead rules, missing cost models, unstable-cost
     lookups with no backing fact, ...);
   - vet: abstract-interpretation soundness, termination/expansion and
     overlap/shadowing of the rules;
   - audit: the encoding contract against the MLIR dialect registry and
     the extraction cost model.

   A tier that finds an error stops the file's later tiers.  Diagnostics
   go to stderr.  Vet and audit print one line per file on stdout: their
   summary and whether the memoized verdict was computed or a hit (-v:
   the summary and the per-rule or per-constructor table).  Exits 1 if
   any file has errors; with --strict, warnings fail too. *)

open Cmdliner
open Dialegg.Verdict

(* What a tier prints on stdout. *)
let print_tier ~verbose ~file v status =
  let line pp_summary pp_table r =
    if verbose then Fmt.pr "%s: %a@.%a@." file pp_summary r pp_table r
    else Fmt.pr "%s: %a [%s]@." file pp_summary r (Dialegg.Disk_cache.status_name status)
  in
  function
  | Lint -> ()
  | Vet -> line Dialegg.Vet.pp_summary Dialegg.Vet.pp_classification v.vet
  | Audit -> line Dialegg.Audit.pp_summary Dialegg.Audit.pp_coverage v.audit

let run only strict verbose files =
  let tiers = match only with Some t -> [ t ] | None -> [ Lint; Vet; Audit ] in
  let n_errors = ref 0 and n_warnings = ref 0 in
  let report diags =
    List.iter (fun d -> Fmt.epr "%a@." Egglog.Diag.pp d) diags;
    n_errors := !n_errors + Egglog.Diag.count_errors diags;
    n_warnings := !n_warnings + Egglog.Diag.count_warnings diags
  in
  List.iter
    (fun file ->
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error msg ->
        report [ Egglog.Diag.make ~file Egglog.Diag.Error "io-error" msg ]
      | src ->
        let checked = lazy (Dialegg.Lint.check ~file src) in
        let v, read = Dialegg.Verdict.read ~file ~checked ~tiers src in
        List.iter
          (fun (tier, status) ->
            report (diags v tier);
            print_tier ~verbose ~file v status tier)
          read)
    files;
  (* the lint tier's closing line *)
  if List.mem Lint tiers && (!n_errors > 0 || !n_warnings > 0) then
    Fmt.epr "%d file(s) checked: %d error(s), %d warning(s)@." (List.length files) !n_errors
      !n_warnings;
  if !n_errors > 0 || (strict && !n_warnings > 0) then exit 1;
  `Ok ()

let only =
  let tiers = [ ("lint", Lint); ("vet", Vet); ("audit", Audit) ] in
  Arg.(
    value
    & opt (some (enum tiers)) None
    & info [ "only" ] ~docv:"TIER"
        ~doc:"Run only this tier: $(b,lint), $(b,vet) or $(b,audit) (default: all three)")

let strict = Arg.(value & flag & info [ "strict" ] ~doc:"Exit non-zero on warnings too")

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Print vet's per-rule classification and audit's per-constructor coverage tables")

let files =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"RULES.egg" ~doc:"Egglog rule file(s) to check")

let cmd =
  let doc = "static checker (lint, vet, audit) for DialEgg Egglog rule files" in
  Cmd.v
    (Cmd.info "dialegg-check" ~version:"1.0.0" ~doc)
    Term.(ret (const run $ only $ strict $ verbose $ files))

let () = Serve.Cli.main (fun () -> Serve.Cli.eval cmd)
