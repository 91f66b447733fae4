(* Statement-level dependence graph over the driver's classification.

   The driver ends at a printed table; everything downstream (doall
   legality, privatization, annotated emission) wants the same data as a
   graph: statements as nodes, apparent dependences as edges tagged
   live/dead, with the levels each edge can be carried at under the
   standard vectors (what a conventional analyzer knows) and under the
   refined vectors (what the extended analysis knows).  The gap between
   those two level sets - plus the dead edges - is exactly the paper's
   payoff, made consumable by transformations. *)

type status = Live | Dead of Driver.dead_reason

type edge = {
  e_src : Ir.access;
  e_dst : Ir.access;
  e_kind : Deps.kind;
  e_status : status;
  e_std_vectors : Dirvec.t list;
  e_vectors : Dirvec.t list;
  e_std_levels : int list;
  e_levels : int list;
  e_loops : int list;
}

type node = {
  n_stmt : int;
  n_label : string;
  n_array : string;
  n_loops : int list;
}

type loop_info = {
  l_node : int;
  l_var : string;
  l_depth : int;
  l_outer : string list;
  l_stmts : string list;
}

type t = {
  prog : Ir.program;
  nodes : node list;
  edges : edge list;
  loops : loop_info list;
}

(* ------------------------------------------------------------------ *)
(* Carried levels                                                      *)
(* ------------------------------------------------------------------ *)

let entry_allows_zero (e : Dirvec.entry) =
  Dirvec.entry_allows_zero e
  && (match e.Dirvec.lo with Some l -> l <= 0 | None -> true)
  && match e.Dirvec.hi with Some h -> h >= 0 | None -> true

let entry_allows_pos (e : Dirvec.entry) =
  (match e.Dirvec.sign with
   | Dirvec.Pos | Dirvec.NonNeg | Dirvec.Any -> true
   | Dirvec.Zero | Dirvec.Neg | Dirvec.NonPos -> false)
  && match e.Dirvec.hi with Some h -> h >= 1 | None -> true

let carried_levels (vecs : Dirvec.t list) : int list =
  let of_vec (v : Dirvec.t) =
    let rec go level prefix_zero acc = function
      | [] -> if prefix_zero then 0 :: acc else acc
      | e :: rest ->
        let acc =
          if prefix_zero && entry_allows_pos e then level :: acc else acc
        in
        go (level + 1) (prefix_zero && entry_allows_zero e) acc rest
    in
    go 1 true [] v
  in
  List.concat_map of_vec vecs |> List.sort_uniq Stdlib.compare

let common_loop_nodes (a : Ir.access) (b : Ir.access) =
  let rec go xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' when x = y -> x :: go xs' ys'
    | _ -> []
  in
  go a.Ir.loop_nodes b.Ir.loop_nodes

let carrier (e : edge) (node : int) : int option =
  let rec index i = function
    | [] -> None
    | x :: rest -> if x = node then Some i else index (i + 1) rest
  in
  index 1 e.e_loops

let carried_at ~use_std (e : edge) (node : int) =
  match carrier e node with
  | None -> false
  | Some k -> List.mem k (if use_std then e.e_std_levels else e.e_levels)

let under_loop (a : Ir.access) (node : int) = List.mem node a.Ir.loop_nodes
let live e = e.e_status = Live
let kind_edges g kind = List.filter (fun e -> e.e_kind = kind) g.edges

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let edge_of_flow_result (kind : Deps.kind) (fr : Driver.flow_result) : edge =
  let dep = fr.Driver.dep in
  let std_vecs = dep.Deps.vectors in
  let ext_vecs =
    match fr.Driver.refined with Some v -> v | None -> std_vecs
  in
  (* the standard analysis computes exact per-level satisfiability, so
     prefer [dep.levels] to the vector-derived approximation for the
     unrefined side *)
  let std_levels = dep.Deps.levels in
  let ext_levels =
    match fr.Driver.refined with
    | Some v -> carried_levels v
    | None -> std_levels
  in
  {
    e_src = dep.Deps.src;
    e_dst = dep.Deps.dst;
    e_kind = kind;
    e_status =
      (match fr.Driver.dead with None -> Live | Some r -> Dead r);
    e_std_vectors = std_vecs;
    e_vectors = ext_vecs;
    e_std_levels = std_levels;
    e_levels = ext_levels;
    e_loops = common_loop_nodes dep.Deps.src dep.Deps.dst;
  }

(* Nodes and the loop tree come from one walk of the IR statement tree. *)
let structure (prog : Ir.program) : node list * loop_info list =
  let nodes = ref [] and loops = ref [] in
  let rec labels_of = function
    | Ir.IFor { body; _ } -> List.concat_map labels_of body
    | Ir.IAssign { label; _ } -> [ label ]
  in
  let rec walk outer = function
    | Ir.IFor { node_id; var; body; _ } ->
      loops :=
        {
          l_node = node_id;
          l_var = var;
          l_depth = List.length outer + 1;
          l_outer = List.rev outer;
          l_stmts = List.concat_map labels_of body;
        }
        :: !loops;
      List.iter (walk (var :: outer)) body
    | Ir.IAssign { stmt_id; label; write; _ } ->
      nodes :=
        {
          n_stmt = stmt_id;
          n_label = label;
          n_array = write.Ir.array;
          n_loops = write.Ir.loop_nodes;
        }
        :: !nodes
  in
  List.iter (walk []) prog.Ir.stmts;
  (List.rev !nodes, List.rev !loops)

let assemble prog ~(flows : Driver.flow_result list)
    ~(antis : Driver.flow_result list)
    ~(outputs : Driver.flow_result list) : t =
  let nodes, loops = structure prog in
  let edges =
    List.map (edge_of_flow_result Deps.Flow) flows
    @ List.map (edge_of_flow_result Deps.Anti) antis
    @ List.map (edge_of_flow_result Deps.Output) outputs
  in
  { prog; nodes; edges; loops }

let build ?(in_bounds = false) (prog : Ir.program) : t =
  let res = Driver.analyze ~in_bounds prog in
  let classify =
    Driver.classify_storage ~in_bounds res.Driver.ctx
      ~outputs:res.Driver.outputs
  in
  let antis = classify res.Driver.antis in
  let outputs = classify res.Driver.outputs in
  assemble prog ~flows:res.Driver.flows ~antis ~outputs

(* ------------------------------------------------------------------ *)
(* DOT                                                                 *)
(* ------------------------------------------------------------------ *)

let kind_string = function
  | Deps.Flow -> "flow"
  | Deps.Anti -> "anti"
  | Deps.Output -> "output"

let status_label = function
  | Live -> ""
  | Dead (Driver.Killed k) -> Printf.sprintf " killed by %s" k.Ir.label
  | Dead (Driver.Covered c) -> Printf.sprintf " covered by %s" c.Ir.label

let vectors_string vecs = String.concat " " (List.map Dirvec.to_string vecs)

let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot (g : t) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph dependences {\n";
  pf "  rankdir=TB;\n";
  pf "  node [shape=box, fontname=\"monospace\", fontsize=10];\n";
  pf "  edge [fontname=\"monospace\", fontsize=9];\n";
  (* statement nodes, clustered by the loop nest *)
  let rec emit indent (s : Ir.istmt) =
    let pad = String.make indent ' ' in
    match s with
    | Ir.IFor { node_id; var; body; _ } ->
      pf "%ssubgraph cluster_loop%d {\n" pad node_id;
      pf "%s  label=\"for %s\";\n" pad (dot_escape var);
      pf "%s  style=rounded;\n" pad;
      List.iter (emit (indent + 2)) body;
      pf "%s}\n" pad
    | Ir.IAssign { stmt_id; write; _ } ->
      pf "%ss%d [label=\"%s\"];\n" pad stmt_id
        (dot_escape (Ir.access_to_string write))
  in
  List.iter (emit 2) g.prog.Ir.stmts;
  (* dependence edges *)
  List.iter
    (fun e ->
      let style =
        match e.e_kind with
        | Deps.Flow -> "solid"
        | Deps.Anti -> "dashed"
        | Deps.Output -> "dotted"
      in
      let color, fontcolor =
        match e.e_status with
        | Live -> (
          ( (match e.e_kind with
             | Deps.Flow -> "black"
             | Deps.Anti -> "darkorange3"
             | Deps.Output -> "red3"),
            "black" ))
        | Dead _ -> ("gray60", "gray60")
      in
      pf "  s%d -> s%d [label=\"%s %s%s\", style=%s, color=%s, fontcolor=%s];\n"
        e.e_src.Ir.stmt_id e.e_dst.Ir.stmt_id (kind_string e.e_kind)
        (dot_escape (vectors_string e.e_vectors))
        (dot_escape (status_label e.e_status))
        style color fontcolor)
    g.edges;
  pf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ json_escape s ^ "\""
let jlist f l = "[" ^ String.concat "," (List.map f l) ^ "]"
let jint = string_of_int

let to_json (g : t) : string =
  let buf = Buffer.create 1024 in
  let node_json n =
    Printf.sprintf "{\"stmt\":%d,\"label\":%s,\"array\":%s,\"loops\":%s}"
      n.n_stmt (jstr n.n_label) (jstr n.n_array) (jlist jint n.n_loops)
  in
  let loop_json l =
    Printf.sprintf
      "{\"node\":%d,\"var\":%s,\"depth\":%d,\"outer\":%s,\"stmts\":%s}"
      l.l_node (jstr l.l_var) l.l_depth (jlist jstr l.l_outer)
      (jlist jstr l.l_stmts)
  in
  let edge_json e =
    let status, by =
      match e.e_status with
      | Live -> ("live", None)
      | Dead (Driver.Killed k) -> ("killed", Some k.Ir.label)
      | Dead (Driver.Covered c) -> ("covered", Some c.Ir.label)
    in
    Printf.sprintf
      "{\"src\":%s,\"dst\":%s,\"src_stmt\":%d,\"dst_stmt\":%d,\"kind\":%s,\
       \"status\":%s%s,\"array\":%s,\"std_vectors\":%s,\"vectors\":%s,\
       \"std_levels\":%s,\"levels\":%s,\"loops\":%s}"
      (jstr e.e_src.Ir.label) (jstr e.e_dst.Ir.label) e.e_src.Ir.stmt_id
      e.e_dst.Ir.stmt_id
      (jstr (kind_string e.e_kind))
      (jstr status)
      (match by with Some l -> ",\"by\":" ^ jstr l | None -> "")
      (jstr e.e_src.Ir.array)
      (jstr (vectors_string e.e_std_vectors))
      (jstr (vectors_string e.e_vectors))
      (jlist jint e.e_std_levels) (jlist jint e.e_levels)
      (jlist jint e.e_loops)
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "\"nodes\":%s,\n" (jlist node_json g.nodes));
  Buffer.add_string buf
    (Printf.sprintf "\"loops\":%s,\n" (jlist loop_json g.loops));
  Buffer.add_string buf
    (Printf.sprintf "\"edges\":%s\n" (jlist edge_json g.edges));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
