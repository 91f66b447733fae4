(* The overall section-4 procedure:

   1. compute all output dependences (they gate the kill and refinement
      tests);
   2. for each array read, compute the apparent flow dependences; refine
      each, then check whether it covers the read;
   3. a covering dependence kills every dependence from a write that runs
      completely before the cover (a quick, Omega-free elimination) and is
      tried as a killer for the rest;
   4. remaining flow dependences to the same read are checked pairwise for
      killing, screened by the quick tests of section 4.5.

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

(* Quick screen (4.5): killing the A->C dependence with B->C requires an
   output dependence A->B. *)
let output_exists outputs (a : Ir.access) (b : Ir.access) =
  List.exists
    (fun (d : Deps.dep) ->
      d.Deps.src.Ir.acc_id = a.Ir.acc_id && d.Deps.dst.Ir.acc_id = b.Ir.acc_id)
    outputs

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

(* The section-4.5 structural screens count as the [quick] tier row of
   [Omega.Metrics]: an attempt per consultation, a decide per
   short-circuit (a solver query avoided).  [quick_screen hit] records
   both and returns [hit] so call sites read as the screen predicate
   itself. *)
let quick_screen hit =
  let r = (Omega.Metrics.current ()).Omega.Metrics.quick in
  r.attempts <- r.attempts + 1;
  if hit then r.decides <- r.decides + 1;
  hit

let analyze ?(in_bounds = false) ?(quick = true) (prog : Ir.program) : result =
  let ctx = Depctx.create prog in
  let outputs = Deps.all ~in_bounds ctx Deps.Output in
  let antis = Deps.all ~in_bounds ctx Deps.Anti in
  let process_dst ~kind ~(srcs : Ir.access list) (b : Ir.access) :
      flow_result list =
    let writers =
      List.filter (fun w -> w.Ir.array = b.Ir.array) srcs
    in
    (* apparent flow dependences to b, with refinement and cover info *)
    let cands =
      List.filter_map
        (fun (a : Ir.access) ->
          if kind = Deps.Output && a.Ir.acc_id = b.Ir.acc_id && Ir.depth a = 0
          then None
          else
          match Deps.compute ~in_bounds ctx ~src:a ~dst:b ~kind with
          | None -> None
          | Some dep ->
            let refined =
              if quick && quick_screen (not (refinement_possible outputs a))
              then None
              else begin
                let pinned = Analyses.refine ~in_bounds ctx ~src:a ~dst:b in
                if pinned = [] then None
                else begin
                  let vecs =
                    Analyses.refined_vectors ~in_bounds ctx ~src:a ~dst:b
                      pinned
                  in
                  if List.compare Dirvec.compare vecs dep.Deps.vectors = 0
                  then None
                  else Some vecs
                end
              end
            in
            let vectors =
              match refined with Some v -> v | None -> dep.Deps.vectors
            in
            let covers =
              if quick && quick_screen (not (cover_possible vectors)) then
                false
              else Analyses.covers ~in_bounds ctx ~src:a ~dst:b
            in
            Some { dep; refined; covers; dead = None })
        writers
    in
    (* cover-based elimination: a covering write kills dependences from
       writes that run completely before it (no Omega call needed) *)
    (* Budget-degraded ("assumed") dependences are exempt from every
       elimination below: a kill/cover proof against a dependence whose
       exact problem may be empty is vacuous, and honoring it would let
       degraded runs eliminate edges precise runs keep. *)
    let cands =
      List.map
        (fun fr ->
          if fr.dead <> None || fr.dep.Deps.assumed then fr
          else begin
            let killed_by_cover =
              List.find_opt
                (fun other ->
                  other.covers
                  && other.dep.Deps.src.Ir.acc_id <> fr.dep.Deps.src.Ir.acc_id
                  &&
                  let vecs =
                    match other.refined with
                    | Some v -> v
                    | None -> other.dep.Deps.vectors
                  in
                  cover_eliminates ~cover_vectors:vecs other.dep.Deps.src b
                    fr.dep.Deps.src)
                cands
            in
            if quick_screen (killed_by_cover <> None) then
              let cov = Option.get killed_by_cover in
              { fr with dead = Some (Covered cov.dep.Deps.src) }
            else fr
          end)
        cands
    in
    (* Pairwise killing among the remaining dependences.  A dead writer
       still writes, so it kills just as well as a live one: admitting
       dead killers is sound, strictly more precise, and makes each
       verdict a pure function of the individual kill queries
       (independent of processing order) - which the fault-injection
       soundness harness relies on. *)
    let arr = Array.of_list cands in
    Array.iteri
      (fun i fr ->
        if fr.dead = None && not fr.dep.Deps.assumed then begin
          let killer =
            Array.to_list arr
            |> List.find_opt (fun other ->
                   other.dep.Deps.src.Ir.acc_id <> fr.dep.Deps.src.Ir.acc_id
                   &&
                   if
                     quick
                     && quick_screen
                          (not
                             (output_exists outputs fr.dep.Deps.src
                                other.dep.Deps.src))
                   then false
                   else
                     Analyses.kills ~in_bounds ctx ~src:fr.dep.Deps.src
                       ~killer:other.dep.Deps.src ~dst:b)
          in
          match killer with
          | Some k ->
            arr.(i) <- { fr with dead = Some (Killed k.dep.Deps.src) }
          | None -> ()
        end)
      arr;
    Array.to_list arr
  in
  (* One destination (with all its candidate writers, refinements,
     covers and kills) is the sharding unit here; concatenating in
     destination order reproduces the serial result list exactly. *)
  let flows =
    Par.map_list
      (process_dst ~kind:Deps.Flow ~srcs:(Ir.writes prog))
      (Ir.reads prog)
    |> List.concat
  in
  { ctx; flows; antis; outputs }

(* The same live/dead classification applied to output or anti
   dependences (the paper notes the techniques "can also be applied to
   output and anti-dependences" though its implementation, like our
   default driver, leaves them untouched).  For output dependences the
   destinations are writes; for anti dependences the sources are reads
   (and the killers remain writes).  [deps] are all the dependences of
   one storage kind, computed in [ctx]: only the kill step runs here. *)
let classify_storage ?(in_bounds = false) ?(quick = true) (ctx : Depctx.t)
    (deps : Deps.dep list) : flow_result list =
  let prog = ctx.Depctx.prog in
  Par.map_list
    (fun (b : Ir.access) ->
      let cands =
        List.filter_map
          (fun (dep : Deps.dep) ->
            if dep.Deps.dst.Ir.acc_id <> b.Ir.acc_id then None
            else Some { dep; refined = None; covers = false; dead = None })
          deps
      in
      (* pairwise killing: an intervening write to the same element makes
         the dependence transitive *)
      let arr = Array.of_list cands in
      Array.iteri
        (fun i fr ->
          if fr.dead = None && not fr.dep.Deps.assumed then begin
            let killer =
              List.find_opt
                (fun (k : Ir.access) ->
                  k.Ir.acc_id <> fr.dep.Deps.src.Ir.acc_id
                  && k.Ir.acc_id <> b.Ir.acc_id
                  && k.Ir.array = b.Ir.array
                  && ((not quick)
                      || Deps.exists ctx ~src:fr.dep.Deps.src ~dst:k)
                  && Analyses.kills ~in_bounds ctx ~src:fr.dep.Deps.src
                       ~killer:k ~dst:b)
                (Ir.writes prog)
            in
            match killer with
            | Some k -> arr.(i) <- { fr with dead = Some (Killed k) }
            | None -> ()
          end)
        arr;
      Array.to_list arr)
    (Ir.writes prog)
  |> List.concat

let classify_kind ?(in_bounds = false) ?(quick = true) (prog : Ir.program)
    (kind : Deps.kind) : flow_result list =
  match kind with
  | Deps.Flow -> (analyze ~in_bounds ~quick prog).flows
  | Deps.Output | Deps.Anti ->
    let ctx = Depctx.create prog in
    classify_storage ~in_bounds ~quick ctx (Deps.all ~in_bounds ctx kind)

(* ------------------------------------------------------------------ *)
(* Report rendering (the Figure 3 / Figure 4 tables)                   *)
(* ------------------------------------------------------------------ *)

let status_string fr =
  let c = if fr.covers then "C" else " " in
  let r = if fr.refined <> None then "r" else " " in
  Printf.sprintf "[%s%s]" c r

let vectors_string fr =
  let vecs =
    match fr.refined with Some v -> v | None -> fr.dep.Deps.vectors
  in
  String.concat " " (List.map Dirvec.to_string vecs)

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
