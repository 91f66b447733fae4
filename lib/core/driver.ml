(* The overall section-4 procedure:

   1. compute all output dependences (they gate the kill and refinement
      tests);
   2. for each array read, compute the apparent flow dependences; refine
      each, then check whether it covers the read;
   3. a covering dependence kills every dependence from a write that runs
      completely before the cover (a quick, Omega-free elimination) and is
      tried as a killer for the rest;
   4. remaining flow dependences to the same read are checked pairwise for
      killing, screened by the quick tests of section 4.5.  The same kill
      step ([kill_step]) classifies anti and output dependences
      ([classify_storage]).

   The result classifies every apparent flow dependence as live or dead
   (killed/covered), with refinement and covering annotations - the data
   of Figures 3 and 4. *)

type dead_reason = Killed of Ir.access | Covered of Ir.access

type flow_result = {
  dep : Deps.dep;
  refined : Dirvec.t list option; (* refined vectors when they differ *)
  covers : bool; (* does this dependence cover its read? *)
  dead : dead_reason option;
}

type result = {
  ctx : Depctx.t;
  flows : flow_result list;
  antis : Deps.dep list;
  outputs : Deps.dep list;
}

(* Quick screen (4.5): refinement in some loop needs a self-output
   dependence of the source with a possibly-nonzero distance. *)
let refinement_possible outputs (src : Ir.access) =
  List.exists
    (fun (d : Deps.dep) ->
      d.Deps.src.Ir.acc_id = src.Ir.acc_id
      && d.Deps.dst.Ir.acc_id = src.Ir.acc_id)
    outputs

(* Quick screen (4.5): a dependence whose distance cannot be 0 in some
   common loop cannot cover the read the first time through that loop. *)
let cover_possible (vectors : Dirvec.t list) =
  List.exists Dirvec.allows_all_zero vectors

(* The dependence from [a] to [b] in [deps], if there is one.  The 4.5
   kill screen reads it: killing the A->C dependence with B needs a
   dependence A->B, and the kill query ranges over its levels. *)
let dep_between deps (a : Ir.access) (b : Ir.access) =
  List.find_opt
    (fun (d : Deps.dep) ->
      d.Deps.src.Ir.acc_id = a.Ir.acc_id && d.Deps.dst.Ir.acc_id = b.Ir.acc_id)
    deps

(* A flow result's vectors: the refined ones when refinement changed
   them. *)
let vectors fr = Option.value fr.refined ~default:fr.dep.Deps.vectors

(* Can the covering dependence [a] -> [b] eliminate the dependence from
   write [w] to [b] without a kill test?  Sound when:
   - the cover is loop-independent (its distance is exactly 0 in every
     loop common to [a] and [b]: the covering instance shares those
     counters with the read);
   - [w] is textually before [a]; and
   - every loop [w] shares with [a] or with [b] is also shared by [a] and
     [b] (so the shared counters equal those of the covering instance and
     the textual order decides the rest).
   Then every [w] instance sourcing a dependence to the read precedes the
   covering write of that read, which overwrites the element first. *)
let cover_eliminates ~(cover_vectors : Dirvec.t list) (a : Ir.access)
    (b : Ir.access) (w : Ir.access) =
  List.exists Dirvec.is_loop_independent cover_vectors
  && List.length cover_vectors = 1
  && Ir.textually_before w a
  && Ir.common_loops w a <= Ir.common_loops a b
  && Ir.common_loops w b <= Ir.common_loops a b

(* The extended step for one write/read pair: the flow dependence from
   [src] to [dst] ([None] when there is none), refined (4.4) when a
   self-output dependence of [src] makes refinement possible, and tested
   for covering [dst] (4.2) when its vectors allow a cover. *)
let extend ?(in_bounds = false) ctx ~outputs ~(src : Ir.access)
    ~(dst : Ir.access) : flow_result option =
  Deps.compute ~in_bounds ctx ~src ~dst ~kind:Deps.Flow
  |> Option.map (fun (dep : Deps.dep) ->
         let refined =
           if Analyses.quick_screen (not (refinement_possible outputs src))
           then None
           else
             match
               Analyses.refine ~in_bounds ctx ~src ~dst ~levels:dep.Deps.levels
             with
             | [], _ -> None
             | _, vecs ->
               if List.compare Dirvec.compare vecs dep.Deps.vectors = 0 then
                 None
               else Some vecs
         in
         let fr = { dep; refined; covers = false; dead = None } in
         let covers =
           (not (Analyses.quick_screen (not (cover_possible (vectors fr)))))
           && Analyses.covers ~in_bounds ctx ~src ~dst ~levels:dep.Deps.levels
         in
         { fr with covers })

(* The pairwise kill step (4.1) over [cands], the dependences into
   [dst].  The killers are the sources of the dependences in [into] that
   end at [dst] (other than [dst] itself), in write order: a write with
   no dependence to [dst] writes none of its elements before it, so it
   cannot kill.  Killing A->C with B also needs a dependence A->B; the
   4.5 screen looks it up in [screen] before any kill query is posed.  A
   live, exactly computed dependence is killed by the first killer whose
   query proves; the query ranges over the levels of the three
   dependences (A->C, A->B from [screen], B->C from [into]).

   Budget-degraded ("assumed") dependences are never eliminated: a kill
   proof against a dependence whose exact problem may be empty is
   vacuous, and honoring it would let degraded runs eliminate edges
   precise runs keep.  A dead or assumed dependence's source still
   writes, so it kills as well as any: admitting it is sound, strictly
   more precise, and makes each verdict a pure function of the
   individual kill queries (independent of processing order), which the
   fault-injection soundness harness relies on. *)
let kill_step ~in_bounds ctx ~into ~screen (dst : Ir.access) cands =
  let killers =
    List.filter_map
      (fun (k : Ir.access) ->
        if k.Ir.acc_id = dst.Ir.acc_id then None
        else Option.map (fun bc -> (k, bc)) (dep_between into k dst))
      (Ir.writes ctx.Depctx.prog)
  in
  List.map
    (fun fr ->
      let src = fr.dep.Deps.src in
      let kills ((k : Ir.access), (bc : Deps.dep)) =
        k.Ir.acc_id <> src.Ir.acc_id
        &&
        let ab = dep_between screen src k in
        (not (Analyses.quick_screen (Option.is_none ab)))
        &&
        match ab with
        | None -> false
        | Some ab ->
          Analyses.kills ~in_bounds ctx ~src ~killer:k ~dst
            ~ac:fr.dep.Deps.levels ~ab:ab.Deps.levels ~bc:bc.Deps.levels
      in
      if fr.dead <> None || fr.dep.Deps.assumed then fr
      else
        match List.find_opt kills killers with
        | Some (k, _) -> { fr with dead = Some (Killed k) }
        | None -> fr)
    cands

let analyze ?(in_bounds = false) (prog : Ir.program) : result =
  let ctx = Depctx.create prog in
  let outputs = Deps.all ~in_bounds ctx Deps.Output in
  let antis = Deps.all ~in_bounds ctx Deps.Anti in
  let process_dst (b : Ir.access) : flow_result list =
    (* apparent flow dependences to b, with refinement and cover info *)
    let cands =
      List.filter_map
        (fun (a : Ir.access) ->
          if a.Ir.array <> b.Ir.array then None
          else extend ~in_bounds ctx ~outputs ~src:a ~dst:b)
        (Ir.writes prog)
    in
    (* cover-based elimination: a covering write kills dependences from
       writes that run completely before it (no Omega call needed);
       assumed dependences are exempt, as in [kill_step] *)
    let cands =
      List.map
        (fun fr ->
          if fr.dep.Deps.assumed then fr
          else begin
            let killed_by_cover =
              List.find_opt
                (fun other ->
                  other.covers
                  && other.dep.Deps.src.Ir.acc_id <> fr.dep.Deps.src.Ir.acc_id
                  && cover_eliminates ~cover_vectors:(vectors other)
                       other.dep.Deps.src b fr.dep.Deps.src)
                cands
            in
            if Analyses.quick_screen (killed_by_cover <> None) then
              let cov = Option.get killed_by_cover in
              { fr with dead = Some (Covered cov.dep.Deps.src) }
            else fr
          end)
        cands
    in
    kill_step ~in_bounds ctx
      ~into:(List.map (fun fr -> fr.dep) cands)
      ~screen:outputs b cands
  in
  (* One destination (with all its candidate writers, refinements,
     covers and kills) is the sharding unit here; concatenating in
     destination order reproduces the serial result list exactly. *)
  let flows =
    Par.map_list process_dst (Ir.reads prog)
    |> List.concat
  in
  { ctx; flows; antis; outputs }

(* The same live/dead classification applied to output or anti
   dependences (the paper notes the techniques "can also be applied to
   output and anti-dependences" though its implementation, like our
   default driver, leaves them untouched).  For output dependences the
   destinations are writes; for anti dependences the sources are reads
   (and the killers remain writes).  [deps] are all the dependences of
   one storage kind, computed in [ctx], and [outputs] all its output
   dependences: only the kill step runs here, with the writes that have
   an output dependence into the destination as killers and [deps] as
   the screen (the anti list holds the read->killer dependences, the
   output list the write->killer ones). *)
let classify_storage ?(in_bounds = false) (ctx : Depctx.t) ~outputs
    (deps : Deps.dep list) : flow_result list =
  Par.map_list
    (fun (b : Ir.access) ->
      List.filter_map
        (fun (dep : Deps.dep) ->
          if dep.Deps.dst.Ir.acc_id <> b.Ir.acc_id then None
          else Some { dep; refined = None; covers = false; dead = None })
        deps
      |> kill_step ~in_bounds ctx ~into:outputs ~screen:deps b)
    (Ir.writes ctx.Depctx.prog)
  |> List.concat

let classify_kind ?(in_bounds = false) (prog : Ir.program) (kind : Deps.kind)
    : flow_result list =
  match kind with
  | Deps.Flow -> (analyze ~in_bounds prog).flows
  | Deps.Output | Deps.Anti ->
    let ctx = Depctx.create prog in
    let outputs = Deps.all ~in_bounds ctx Deps.Output in
    classify_storage ~in_bounds ctx ~outputs
      (if kind = Deps.Output then outputs else Deps.all ~in_bounds ctx kind)

(* ------------------------------------------------------------------ *)
(* Report rendering (the Figure 3 / Figure 4 tables)                   *)
(* ------------------------------------------------------------------ *)

let status_string fr =
  let c = if fr.covers then "C" else " " in
  let r = if fr.refined <> None then "r" else " " in
  Printf.sprintf "[%s%s]" c r

let vectors_string fr =
  String.concat " " (List.map Dirvec.to_string (vectors fr))

let live_flows r = List.filter (fun fr -> fr.dead = None) r.flows
let dead_flows r = List.filter (fun fr -> fr.dead <> None) r.flows

let render_flow_table (frs : flow_result list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-22s %-22s %-14s %s\n" "FROM" "TO" "dir/dist" "status");
  List.iter
    (fun fr ->
      let status =
        let r = if fr.refined <> None then "r" else "" in
        match fr.dead with
        | Some (Killed k) -> Printf.sprintf "[ k%s by %s]" r k.Ir.label
        | Some (Covered c) -> Printf.sprintf "[ c%s by %s]" r c.Ir.label
        | None -> status_string fr
      in
      Buffer.add_string buf
        (Printf.sprintf "%-22s %-22s %-14s %s\n"
           (Ir.access_to_string fr.dep.Deps.src)
           (Ir.access_to_string fr.dep.Deps.dst)
           (vectors_string fr) status))
    frs;
  Buffer.contents buf
