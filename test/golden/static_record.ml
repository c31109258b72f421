(* Behaviour record of the three static tiers (lint, vet, audit).  For
   every [.egg] file of the directories named on the command line, the
   full text: each tier's diagnostics in order, vet's per-rule
   classification, audit's per-constructor coverage and both summaries.
   Then, for the 810 gen-corpus rulesets of seed 7 (shape i mod 3, as
   gen_record.ml builds them), one line per case with the MD5 of the
   same text.  The tiers run uncached on the text.  test/golden/dune
   diffs the record against static.expected under `dune runtest`;
   `dune promote` records an intended change. *)

module Diag = Egglog.Diag

let record ~file src =
  let lint = Dialegg.Lint.lint_rules ~file src in
  let vet = Dialegg.Vet.vet ~file src in
  let audit = Dialegg.Audit.audit ~file src in
  Fmt.str "-- lint@.%a-- vet@.%a%a@.%a@.-- audit@.%a%a@.%a@." Diag.pp_list lint Diag.pp_list
    vet.Dialegg.Vet.v_diags Dialegg.Vet.pp_classification vet Dialegg.Vet.pp_summary vet
    Diag.pp_list audit.Dialegg.Audit.a_diags Dialegg.Audit.pp_coverage audit
    Dialegg.Audit.pp_summary audit

let egg_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".egg")
  |> List.sort String.compare
  |> List.map (fun f -> (Filename.concat (Filename.basename dir) f, Filename.concat dir f))

let () =
  Unix.putenv "DIALEGG_VET_CACHE" "";
  Mlir.Registry.ensure_registered ();
  let dirs = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun (label, path) ->
      let src = In_channel.with_open_text path In_channel.input_all in
      Printf.printf "== %s\n%s" label (record ~file:label src))
    (List.concat_map egg_files dirs);
  let shapes = Array.of_list Gen.all_shapes in
  for i = 0 to 809 do
    let c = Gen.case ~shapes:[ shapes.(i mod Array.length shapes) ] ~seed:7 i in
    Printf.printf "%d %s\n" i
      (Digest.to_hex (Digest.string (record ~file:"<rules>" c.Gen.c_egg)))
  done
