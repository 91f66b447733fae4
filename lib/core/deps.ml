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
   variables d_l = j_l - i_l for the common loops.  A coefficient that
   overflows while the base is built leaves [Error Overflow] in its
   place: the pair's queries give up, they do not fail the request. *)
type pair = {
  ctx : Depctx.t;
  a : Depctx.inst;
  b : Depctx.inst;
  base : (Problem.t, Budget.reason) result; (* no ordering constraints *)
  dvars : Var.t array;
  common : int;
}

let make_pair ?(in_bounds = false) ctx (src : Ir.access) (dst : Ir.access) :
    pair =
  let a = Depctx.instantiate ctx src ~tag:Depctx.I in
  let b = Depctx.instantiate ctx dst ~tag:Depctx.J in
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
  { ctx; a; b; base; dvars; common = c }

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

(* The vectors of each ordering level of [p] under [fix], one governed
   query per level ([label] in telemetry); the completed results of all
   levels are one memo entry.  When the base could not be built, each
   level's query runs and gives up at once, counted like a give-up
   inside it. *)
let level_vectors ~label ?(fix = []) (p : pair) levels =
  match p.base with
  | Error r ->
    List.map
      (fun _ -> Budget.run ~label (fun () -> raise (Budget.Exhausted r)))
      levels
  | Ok base ->
    Memo.per_level
      ~key:(fun () ->
        levels_key ~fix base levels ~evars:(Array.to_list p.dvars))
      (fun (lvl, constrs) ->
        let prob = Problem.add_list (fix @ constrs) base in
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
