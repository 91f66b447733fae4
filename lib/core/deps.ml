(* Standard (memory-based) dependence computation: for an ordered pair of
   accesses to the same array, decide whether a dependence exists and
   summarize it with direction/distance vectors, one analysis per carried
   level. *)

open Omega

type kind = Flow | Anti | Output

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"

type dep = {
  src : Ir.access;
  dst : Ir.access;
  kind : kind;
  vectors : Dirvec.t list; (* forward vectors, one or more per level *)
  levels : int list; (* satisfiable carried levels; 0 = loop-independent *)
  assumed : bool;
      (* some level's analysis blew its budget and the dependence is
         (partly) assumed rather than computed.  Elimination must leave
         assumed dependences alone: a kill/cover "proof" against an
         assumed dependence may be vacuous (the exact problem could be
         empty), and honoring it would make degraded runs eliminate
         edges precise runs keep. *)
}

(* A pair of accesses with their instances and carried levels.  Its
   problem - the base problem and the distance variables d_l = j_l - i_l
   of the common loops - is built on first use: a warm query finds its
   key by recipe and never needs it.  The base holds the domains, the
   subscript equality and the user assumptions (and optionally the
   in-bounds assertions).  A coefficient that overflows while the base is
   built leaves [Error Overflow] in its place: the pair's queries give
   up, they do not fail the request. *)
type problem = {
  base : (Problem.t, Budget.reason) result; (* no ordering constraints *)
  dvars : Var.t array;
}

type pair = {
  ctx : Depctx.t;
  a : Depctx.inst;
  b : Depctx.inst;
  in_bounds : bool;
  common : int;
  levels : int list;
  problem : problem Lazy.t;
}

let make_pair ?(in_bounds = false) ctx (src : Ir.access) (dst : Ir.access) :
    pair =
  let a = Depctx.instantiate ctx src ~tag:Depctx.I in
  let b = Depctx.instantiate ctx dst ~tag:Depctx.J in
  let c = Ir.common_loops src dst in
  let problem =
    lazy
      (let dvars =
         Array.init c (fun l -> Var.fresh (Printf.sprintf "d%d" (l + 1)))
       in
       let dconstrs =
         List.init c (fun l ->
             (* d_l = j_l - i_l *)
             Constr.eq2
               (Linexpr.var dvars.(l))
               (Linexpr.sub (Linexpr.var b.Depctx.ivars.(l))
                  (Linexpr.var a.Depctx.ivars.(l))))
       in
       let base =
         match
           Problem.of_list
             (Depctx.domain ~in_bounds ctx a
             @ Depctx.domain ~in_bounds ctx b
             @ Depctx.subs_equal ctx a b
             @ Depctx.assumes ctx
             @ dconstrs)
         with
         | base -> Ok base
         | exception Zint.Overflow -> Error Budget.Overflow
       in
       { base; dvars })
  in
  { ctx; a; b; in_bounds; common = c; levels = Depctx.levels src dst; problem }

(* Memo key of the per-level vectors of a pair with base problem [base]
   under the pinned-distance constraints [fix]: [base], [fix] and each
   level's ordering constraints, with the distinguished variables
   [evars] (the distance variables the vectors are stated over) listed
   so their positions are canonical, and the carried levels in the tag.  Two pairs share a key
   only when they are the same problem up to a renaming that maps each
   distinguished variable to its counterpart. *)
let levels_key ?(fix = []) base levels ~evars =
  let carried = List.map (fun (lvl, _) -> string_of_int lvl) levels in
  Canon.key
    ~tag:("vec" ^ String.concat "," carried)
    ~hyp:fix [ base ] ~evars
    (List.map (fun (_, constrs) -> Problem.of_list constrs) levels)

(* The vectors of each carried level of [p] with the first distances
   pinned to [pins], one governed query per level ([label] in
   telemetry); the completed results of all levels are one memo entry,
   whose key is found by recipe (the pair's accesses and the pins)
   before the pair's problem is built.  The problem, the pins and each
   level's ordering are built once, when a level is solved or the key
   serialized: the key and the solver share the same constraints and
   their caches.  When the base could not be built, each level's query
   runs and gives up at once, counted like a give-up inside it. *)
let level_vectors ~label ?(pins = []) (p : pair) =
  let built =
    lazy
      (let q = Lazy.force p.problem in
       let fix =
         List.mapi
           (fun l d -> Constr.eq2 (Linexpr.var q.dvars.(l)) (Linexpr.of_int d))
           pins
       in
       (q, fix, List.map (fun l -> (l, Depctx.ordering p.a p.b l)) p.levels))
  in
  let solve lvl =
    let q, fix, order = Lazy.force built in
    match q.base with
    | Error r -> Budget.run ~label (fun () -> raise (Budget.Exhausted r))
    | Ok base ->
      let prob = Problem.add_list (fix @ List.assoc lvl order) base in
      Budget.run ~label
        ~fault_key:(fun () -> Canon.of_problems ~tag:"vec" [ prob ])
        (fun () -> Dirvec.vectors_of_level prob q.dvars ~carried:lvl)
  in
  let key () =
    let recipe =
      Depctx.recipe p.ctx ~query:"vec" ~in_bounds:p.in_bounds
        ~dists:(List.map (fun d -> (Some d, Some d)) pins)
        [ p.a.Depctx.access; p.b.Depctx.access ]
    in
    Memo.keyed p.ctx.Depctx.recipes recipe (fun () ->
        let q, fix, order = Lazy.force built in
        Result.to_option q.base
        |> Option.map (fun base ->
               levels_key ~fix base order ~evars:(Array.to_list q.dvars)))
  in
  Memo.per_level ~key solve p.levels

(* Each carried level with its vectors from [level_vectors]; a level
   that gave up is assumed to carry a dependence with its weakest
   vectors. *)
let vectors_by_level (p : pair) results =
  List.map2
    (fun lvl r ->
      match r with
      | Ok vecs -> (lvl, vecs)
      | Error _ -> (lvl, Dirvec.conservative_of_level p.common ~carried:lvl))
    p.levels results

(* Compute the dependence (if any) from [src] to [dst]. *)
let compute ?(in_bounds = false) ctx ~(src : Ir.access) ~(dst : Ir.access)
    ~(kind : kind) : dep option =
  let p = make_pair ~in_bounds ctx src dst in
  let results = level_vectors ~label:"deps/vectors" p in
  match
    List.filter (fun (_, vecs) -> vecs <> []) (vectors_by_level p results)
  with
  | [] -> None
  | found ->
    Some
      {
        src;
        dst;
        kind;
        vectors = List.concat_map snd found |> List.sort_uniq Dirvec.compare;
        levels = List.map fst found;
        assumed = List.exists Result.is_error results;
      }

(* All dependences of a given kind in a program.  Each surviving access
   pair is an independent solver workload, so the pair population shards
   over the domain pool ([Par.map]; width 1 — the default — runs them
   inline).  The result keeps the serial (src, dst) enumeration order,
   and per-pair verdicts are bit-identical to a serial run (see Par). *)
let all ?(in_bounds = false) ctx (kind : kind) : dep list =
  let prog = ctx.Depctx.prog in
  let writes = Ir.writes prog and reads = Ir.reads prog in
  let srcs, dsts =
    match kind with
    | Flow -> (writes, reads)
    | Anti -> (reads, writes)
    | Output -> (writes, writes)
  in
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if src.Ir.array <> dst.Ir.array then None
            else if
              kind = Output && src.Ir.acc_id = dst.Ir.acc_id
              && Ir.depth src = 0
            then None (* a single unlooped write cannot depend on itself *)
            else Some (src, dst))
          dsts)
      srcs
    |> Array.of_list
  in
  Par.map (fun (src, dst) -> compute ~in_bounds ctx ~src ~dst ~kind) pairs
  |> Array.to_list
  |> List.filter_map Fun.id

let dep_to_string (d : dep) =
  Printf.sprintf "%s --%s--> %s %s"
    (Ir.access_to_string d.src)
    (kind_to_string d.kind)
    (Ir.access_to_string d.dst)
    (String.concat " " (List.map Dirvec.to_string d.vectors))
