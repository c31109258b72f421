(* Repro: a union performed during a narrowed rebuild pass must still
   re-canonicalize tables above the narrowed limit.

   Structure (direction f then g):
     f(x1)=y1  f(x2)=y2  f(y1)=z1  f(y2)=z2  g(z1)=w1  g(z2)=w2
   union x1 x2  =>  congruence forces y1~y2, then z1~z2, then w1~w2.

   The same structure is built in the mirrored direction (g chain, f last)
   so that whichever order Symbol.Tbl.fold enumerates the tables, one
   direction exercises the "later pass unions while the other table is
   outside the narrowed limit" path. *)

open Egglog

let () =
  let eg = Egraph.create () in
  Egraph.declare_sort eg "E";
  let decl name =
    Egraph.declare_function eg ~name ~args:[ "E" ] ~ret:"E" ~cost:None
      ~merge:None ~unextractable:false
  in
  let f = decl "f" and g = decl "g" in
  let v id = Value.Eclass id in
  let app fn a =
    match Egraph.apply eg fn [| v a |] with
    | Some (Value.Eclass id) -> id
    | _ -> assert false
  in
  (* direction 1: f chain, g last *)
  let x1 = Egraph.fresh_class eg and x2 = Egraph.fresh_class eg in
  let y1 = app f x1 and y2 = app f x2 in
  let z1 = app f y1 and z2 = app f y2 in
  let w1 = app g z1 and w2 = app g z2 in
  (* direction 2 (mirror): g chain, f last *)
  let p1 = Egraph.fresh_class eg and p2 = Egraph.fresh_class eg in
  let q1 = app g p1 and q2 = app g p2 in
  let r1 = app g q1 and r2 = app g q2 in
  let s1 = app f r1 and s2 = app f r2 in
  Egraph.union eg x1 x2;
  Egraph.union eg p1 p2;
  Egraph.rebuild eg;
  let same a b = Egraph.find_class eg a = Egraph.find_class eg b in
  Printf.printf "w1~w2 (g after f chain): %b\n" (same w1 w2);
  Printf.printf "s1~s2 (f after g chain): %b\n" (same s1 s2);
  (* canonicity sweep *)
  let bad = ref 0 in
  List.iter
    (fun fn ->
      Egraph.iter_rows eg fn (fun args out ->
          let okc v = Value.is_canonical (Egraph.uf eg) v in
          if not (Array.for_all okc args && okc out) then incr bad))
    (Egraph.functions eg);
  Printf.printf "non-canonical rows after rebuild: %d\n" !bad;
  if (not (same w1 w2)) || (not (same s1 s2)) || !bad > 0 then begin
    print_endline "BUG: rebuild left congruence/canonicity broken";
    exit 1
  end
  else print_endline "OK"
