(* Behaviour record of the optimizer on a fixed generated corpus: the 810
   cases of the gen-corpus benchmark at seed 7 (shape i mod 3), each
   optimized under its own ruleset by [Pipeline.optimize_source] with the
   verdict disk cache off.  One line per case with its index, shape and
   the MD5 of the optimized text (or the error), then each function's
   report line.

   Usage: gen_record COLD WARM.  COLD gets the record of the cases
   compiled in order; WARM the record of the same process compiling them
   all again in reverse order, listed in case order.  Every function's
   engine is forked from one base, so both must equal the record:
   test/golden/dune diffs each against gen.expected under `dune runtest`,
   and `dune promote` records an intended change. *)

module P = Dialegg.Pipeline

let n_cases = 810

(* the record's lines for case [i] *)
let record i =
  let shapes = Array.of_list Gen.all_shapes in
  let c = Gen.case ~shapes:[ shapes.(i mod Array.length shapes) ] ~seed:7 i in
  let shape = Gen.shape_name c.Gen.c_shape in
  let config = { P.default_config with P.rules = c.Gen.c_egg } in
  match P.optimize_source ~config c.Gen.c_mlir with
  | out, report ->
    let reports =
      List.filter
        (String.starts_with ~prefix:"@")
        (String.split_on_char '\n' (Fmt.str "%a" P.pp_report report))
    in
    String.concat "\n" (Printf.sprintf "%d %s %s" i shape (Digest.to_hex (Digest.string out)) :: reports)
  | exception e -> Printf.sprintf "%d %s error %S" i shape (Printexc.to_string e)

let write path lines =
  Out_channel.with_open_text path (fun oc ->
      Array.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

let () =
  Unix.putenv "DIALEGG_VET_CACHE" "";
  let cold = Array.init n_cases record in
  let warm = Array.make n_cases "" in
  for i = n_cases - 1 downto 0 do
    warm.(i) <- record i
  done;
  write Sys.argv.(1) cold;
  write Sys.argv.(2) warm
