(** Reference interpreter for petit programs.

    Executes the loop nest with concrete symbolic-constant values and
    records every array read and write, instance by instance.  From the
    trace come the {e dynamic} dependences used as a testing oracle:
    value-based flow dependences (each read paired with its last writer -
    the dependences along which data actually flows) and memory-based
    dependences (what standard dependence analysis reports).  Their
    difference is exactly the set of dead dependences the paper
    eliminates. *)

type loc = string * int list

type instance = {
  acc : Ir.access;
  iters : int list;  (** enclosing loop variable values, outermost first *)
}

type event = { ev_instance : instance; ev_loc : loc; ev_write : bool }
type trace = { events : event list (** in execution order *) }

exception Runtime_error of string

(** {1 Pluggable stores}

    Memory sits behind a [store] so the tracing interpreter, the plain
    serial executor and the parallel doall executor ({!Xform.Exec})
    share one evaluator and differ only in where reads and writes
    land. *)

type store = {
  ld : loc -> int;  (** read one element *)
  st : loc -> int -> unit;  (** write one element *)
}

val hashtbl_store :
  ?init:(string -> int list -> int) -> (loc, int) Hashtbl.t -> store
(** A store over one hash table; reads of unwritten locations fall back
    to [init] (default all zero) without populating the table. *)

type env = {
  e_syms : (string * int) list;  (** symbolic-constant values *)
  mutable e_loops : (string * (int * int)) list;
      (** active loop bindings, innermost first:
          variable -> (surface value, normalized counter) *)
  e_mem : store;
}

val make_env : store:store -> syms:(string * int) list -> env

val eval_expr : env -> Ast.expr -> int
(** Evaluate an expression (array references read through the store);
    no events are recorded. *)

val exec_stmt : env -> Ir.istmt -> unit
(** Execute a statement tree fully serially against the environment's
    store; no events are recorded.  Mutates [env.e_loops] only
    transiently (restored on return). *)

val run :
  ?init:(string -> int list -> int) -> Ir.program -> syms:(string * int) list -> trace
(** Execute with the given symbolic-constant values; [init] supplies the
    initial array contents (default all zero) - used to seed index
    arrays. *)

type dep = { src : instance; dst : instance }

val value_flow_deps : trace -> dep list
val memory_deps : trace -> [ `Flow | `Anti | `Output ] -> dep list

val distance : dep -> int list
(** Dependence distance on the common loops of the two accesses. *)

val pp_dep : Format.formatter -> dep -> unit
