(** Statement-level dependence graph over the driver's live/dead
    classification: the bridge from analysis results to transformations.

    Nodes are the assignment statements of the program; edges are the
    apparent dependences of all three kinds (flow, anti, output), each
    annotated with its live/dead status, its direction vectors under the
    standard and the extended analysis, and the levels at which it can be
    carried.  The graph also exposes the loop tree (each loop with its
    AST node id), which is what the parallelization legality tests are
    phrased over, and DOT / JSON emitters for external tooling. *)

type status = Live | Dead of Driver.dead_reason

type edge = {
  e_src : Ir.access;
  e_dst : Ir.access;
  e_kind : Deps.kind;
  e_status : status;
      (** flow status from {!Driver.analyze}; anti/output status from
          {!Driver.classify_kind} *)
  e_std_vectors : Dirvec.t list;  (** vectors of the standard analysis *)
  e_vectors : Dirvec.t list;
      (** vectors after extended refinement (= [e_std_vectors] when
          refinement did not change them) *)
  e_std_levels : int list;
      (** levels the dependence can be carried at under the standard
          vectors; 0 = loop-independent *)
  e_levels : int list;  (** same, under the refined vectors *)
  e_loops : int list;
      (** AST node ids of the loops common to both endpoints,
          outermost first; level [k] is carried by [List.nth e_loops (k-1)] *)
}

type node = {
  n_stmt : int;  (** statement id *)
  n_label : string;
  n_array : string;  (** array written by the statement *)
  n_loops : int list;  (** enclosing loop AST node ids, outermost first *)
}

(** A loop of the program, as the unit of parallelization legality. *)
type loop_info = {
  l_node : int;  (** AST node id (the key used in [e_loops]) *)
  l_var : string;
  l_depth : int;  (** 1-based nesting depth *)
  l_outer : string list;  (** enclosing loop variables, outermost first *)
  l_stmts : string list;  (** labels of the statements inside, in order *)
}

type t = {
  prog : Ir.program;
  nodes : node list;  (** in textual order *)
  edges : edge list;
  loops : loop_info list;  (** in textual order *)
}

val build : ?in_bounds:bool -> Ir.program -> t
(** Run {!Driver.analyze} for the flow dependences and
    {!Driver.classify_storage} on the anti and output dependences that
    analysis already computed, and assemble the graph.  Each dependence
    is computed once; the anti and output edges equal a standalone
    {!Driver.classify_kind}. *)

val carrier : edge -> int -> int option
(** [carrier e node] is the level (1-based) at which loop [node] could
    carry [e], or [None] when [node] is not a common loop of the
    endpoints. *)

val carried_at : use_std:bool -> edge -> int -> bool
(** Can the edge be carried by the loop with the given AST node id, under
    the standard ([use_std:true]) or extended vectors? *)

val under_loop : Ir.access -> int -> bool
(** Is the access nested (directly or transitively) inside the loop with
    the given AST node id? *)

val live : edge -> bool
val kind_edges : t -> Deps.kind -> edge list
val kind_string : Deps.kind -> string
val vectors_string : Dirvec.t list -> string

val status_label : status -> string
(** [""], [" killed by X"], [" covered by X"]. *)

val common_loop_nodes : Ir.access -> Ir.access -> int list
(** AST node ids of the loops common to two accesses, outermost first. *)

val to_dot : t -> string
(** GraphViz rendering: one box per statement, clustered by loop nest;
    flow edges solid, anti dashed, output dotted; dead edges gray and
    labeled with their killer/cover. *)

val to_json : t -> string
(** Machine-readable rendering of nodes, loops and edges. *)
