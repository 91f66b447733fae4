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

(* The base problem of a pair: domains, subscript equality, user
   assumptions (and optionally in-bounds assertions), plus distance
   variables d_l = j_l - i_l for the common loops.  Returns the problem
   builder and the distance variables. *)
type pair = {
  ctx : Depctx.t;
  a : Depctx.inst;
  b : Depctx.inst;
  base : Problem.t; (* no ordering constraints *)
  dvars : Var.t array;
  common : int;
}

let make_pair ?(in_bounds = false) ctx (src : Ir.access) (dst : Ir.access) :
    pair =
  let a = Depctx.instantiate ctx src ~tag:"i" in
  let b = Depctx.instantiate ctx dst ~tag:"j" in
  let c = Ir.common_loops src dst in
  let dvars =
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
    Problem.of_list
      (Depctx.domain ~in_bounds ctx a
      @ Depctx.domain ~in_bounds ctx b
      @ Depctx.subs_equal ctx a b
      @ Depctx.assumes ctx
      @ dconstrs)
  in
  { ctx; a; b; base; dvars; common = c }

(* Memo key of the per-level vectors of [p] under the pinned-distance
   constraints [fix]: the base problem, [fix] and each level's ordering
   constraints, with the distinguished variables [evars] (the distance
   variables the vectors are stated over) listed so their positions are
   canonical, and the carried levels in the tag.  Two pairs share a key
   only when they are the same problem up to a renaming that maps each
   distinguished variable to its counterpart. *)
let levels_key ?(fix = []) (p : pair) levels ~evars =
  let carried = List.map (fun (lvl, _) -> string_of_int lvl) levels in
  Canon.key
    ~tag:("vec" ^ String.concat "," carried)
    ~hyp:fix [ p.base ] ~evars
    (List.map (fun (_, constrs) -> Problem.of_list constrs) levels)

(* The vectors of each ordering level of [p] under [fix], one governed
   query per level ([label] in telemetry); the completed results of all
   levels are one memo entry. *)
let level_vectors ~label ?(fix = []) (p : pair) levels =
  Memo.per_level
    ~key:(fun () ->
      levels_key ~fix p levels ~evars:(Array.to_list p.dvars))
    (fun (lvl, constrs) ->
      let prob = Problem.add_list (fix @ constrs) p.base in
      Budget.run ~label
        ~fault_key:(fun () -> Canon.of_problems ~tag:"vec" [ prob ])
        (fun () -> Dirvec.vectors_of_level prob p.dvars ~carried:lvl))
    levels

(* Each carried level with its vectors from [level_vectors]; a level
   that gave up is assumed to carry a dependence with its weakest
   vectors. *)
let vectors_by_level (p : pair) levels results =
  List.map2
    (fun (lvl, _) r ->
      match r with
      | Ok vecs -> (lvl, vecs)
      | Error _ -> (lvl, Dirvec.conservative_of_level p.common ~carried:lvl))
    levels results

(* Compute the dependence (if any) from [src] to [dst]. *)
let compute ?(in_bounds = false) ctx ~(src : Ir.access) ~(dst : Ir.access)
    ~(kind : kind) : dep option =
  let p = make_pair ~in_bounds ctx src dst in
  let levels = Depctx.order_before ctx p.a p.b in
  let results = level_vectors ~label:"deps/vectors" p levels in
  match
    List.filter (fun (_, vecs) -> vecs <> []) (vectors_by_level p levels results)
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

(* Does any dependence (ignoring direction refinement) exist at all?  A
   completed level has no vectors exactly when its problem is
   unsatisfiable, and a level that gives up is assumed to carry one.
   [Driver.classify_storage] asks about pairs that [all] has just
   computed, so the memo answers without solver work. *)
let exists ?(in_bounds = false) ctx ~src ~dst : bool =
  let p = make_pair ~in_bounds ctx src dst in
  List.exists
    (function Ok vecs -> vecs <> [] | Error _ -> true)
    (level_vectors ~label:"deps/vectors" p (Depctx.order_before ctx p.a p.b))

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
