(* Examples 1-6 from the paper (section 4): kills, covers, and the
   refinement of dependence distance vectors, including the trapezoidal
   (ex. 4), partial (ex. 5) and coupled (ex. 6) cases that the prior
   approaches of Brandes and Ribas could not handle. *)

open Depend

let expected =
  [
    ("example1", "flow dep A->C killed by the intervening write B");
    ("example2", "read covered by a(L2-1); cover refined (0+) -> (0)");
    ("example3", "flow dependence refined (0+,1) -> (0,1)");
    ("example4", "trapezoidal loop still refines to (0,1)");
    ("example5", "refinement generator stops; (0:1,1) verifiable directly");
    ("example6", "coupled distances refine to (1,1)");
  ]

let () =
  List.iter
    (fun (name, note) ->
      Format.printf "=== %s: %s ===@." name note;
      print_string (Corpus.find name);
      let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
      let result = Driver.analyze prog in
      Format.printf "live flow dependences:@.%s"
        (Driver.render_flow_table (Driver.live_flows result));
      let dead = Driver.dead_flows result in
      if dead <> [] then
        Format.printf "dead flow dependences:@.%s"
          (Driver.render_flow_table dead);
      Format.printf "@.")
    expected;

  (* Example 5's partial refinement, checked with the general test the
     paper describes (its candidate generator cannot find it). *)
  Format.printf "=== example5: direct check of the (0:1,1) refinement ===@.";
  let prog = Lang.Sema.parse_and_analyze (Corpus.find "example5") in
  let ctx = Depctx.create prog in
  let w = List.hd (Lang.Ir.writes prog) in
  let r = List.hd (Lang.Ir.reads prog) in
  (* the candidates range over the levels the dependence is carried at *)
  let levels =
    (Option.get (Deps.compute ctx ~src:w ~dst:r ~kind:Deps.Flow)).Deps.levels
  in
  Format.printf "refine to (0:1, 1): %b (paper: valid)@."
    (Analyses.check_refinement ctx ~src:w ~dst:r ~levels
       [ (Some 0, Some 1); (Some 1, Some 1) ]);
  Format.printf "refine to (0, 1):   %b (paper: invalid, iterations with 1 < L1 = L2 flow from (L1-1, L2-1))@."
    (Analyses.check_refinement ctx ~src:w ~dst:r ~levels
       [ (Some 0, Some 0); (Some 1, Some 1) ])
