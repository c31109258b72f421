(* Behaviour record of the optimizer on a fixed generated corpus: the 810
   cases of the gen-corpus benchmark at seed 7 (shape i mod 3), each
   optimized under its own ruleset by [Pipeline.optimize_source] with the
   vet/audit disk cache off.  One line per case with its index, shape and
   the MD5 of the optimized text (or the error), then each function's
   report line.  test/golden/dune diffs it against gen.expected under
   `dune runtest`; `dune promote` records an intended change. *)

module P = Dialegg.Pipeline

let () =
  Unix.putenv "DIALEGG_VET_CACHE" "";
  let shapes = Array.of_list Gen.all_shapes in
  for i = 0 to 809 do
    let c = Gen.case ~shapes:[ shapes.(i mod Array.length shapes) ] ~seed:7 i in
    let shape = Gen.shape_name c.Gen.c_shape in
    let config = { P.default_config with P.rules = c.Gen.c_egg } in
    match P.optimize_source ~config c.Gen.c_mlir with
    | out, report ->
      Printf.printf "%d %s %s\n" i shape (Digest.to_hex (Digest.string out));
      List.iter
        (fun line -> if String.starts_with ~prefix:"@" line then print_endline line)
        (String.split_on_char '\n' (Fmt.str "%a" P.pp_report report))
    | exception e -> Printf.printf "%d %s error %S\n" i shape (Printexc.to_string e)
  done
