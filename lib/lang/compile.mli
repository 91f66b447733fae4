(** Bytecode compiler: petit programs lowered to a register machine over
    flat memory.

    Every array (and scalar — a 0-dimensional array) whose accesses
    interval analysis can bound is laid out in one contiguous integer
    arena.  Extents come from the actual accesses under the given
    symbolic-constant values, so the arena is sized by what the program
    touches, not by the (routinely exceeded) declared ranges.  Affine
    subscripts compile to strength-reduced [Muladd] chains with every
    symbolic constant folded at compile time; any other subscript (a
    product of loop variables, [max]/[min], a read of an index array or
    a scalar) is computed at run time.  Loops become counted back-edges
    — opaque bounds are evaluated at run time like any expression;
    expression trees become three-address code with constant folding.

    {b Dense or sparse} is decided per array from the program:
    - an array stays {e dense} (in the arena) when the interval analysis
      bounds every subscript of every access to it and the layout keeps
      the arena within [1 lsl 28] cells.  A dense access through a
      non-affine subscript is checked against that dimension's own
      extent ({!constructor:Chk}), so an unsound interval raises; it
      never writes a neighbouring array.  Overflow inside the interval
      analysis makes the extent unknown, never a wrapped interval;
    - any other array is {e sparse}: one hash table per array, keyed by
      the subscript tuple ({!constructor:LdH}/{!constructor:StH}).  A
      read of an absent cell returns the VM's [init] value and inserts
      nothing — the interpreter's semantics.

    When a [plan] is supplied (doall loop node -> privatized arrays, as
    produced by [Xform.Exec.plan]), each plan loop reached outside any
    other plan loop compiles to a {e parallel region}: the main code
    evaluates the loop bounds into registers and issues a single
    {!constructor:Region} instruction; the region carries two compiled
    bodies for one iteration — [rg_serial] addressing the shared arena
    directly, and [rg_par] addressing each privatized array inside a
    per-chunk scratch slab ([LdS]/[StS]).  How iterations are driven
    (serially or chunked over domains) is the VM driver's choice.

    A plan loop whose body reads or writes a sparse array is never made
    a region: it compiles as an ordinary serial loop (plan loops nested
    in it may still become regions), so no two domains ever share a
    hash table and region bodies contain no sparse opcodes.

    Every program whose symbols are all bound compiles; {!Unsupported}
    remains only for an unbound name. *)

exception Unsupported of string

(** {1 Instructions}

    Registers are integers into a flat register file; [rd] first.
    Address operands index the arena ([Ld]/[St]) or the current chunk's
    slab ([LdS]/[StS]). *)

type instr =
  | Li of int * int  (** rd <- imm *)
  | Mov of int * int  (** rd <- rs *)
  | Add of int * int * int  (** rd <- rs + rt *)
  | Sub of int * int * int
  | Mul of int * int * int
  | Maxr of int * int * int
  | Minr of int * int * int
  | Addi of int * int * int  (** rd <- rs + imm *)
  | Muli of int * int * int  (** rd <- rs * imm *)
  | Muladd of int * int * int * int  (** rd <- rs + imm * rt *)
  | Ld of int * int  (** rd <- arena(rs) *)
  | Ldi of int * int  (** rd <- arena(imm) *)
  | St of int * int  (** arena(rd) <- rs *)
  | Sti of int * int  (** arena(imm) <- rs *)
  | LdS of int * int  (** rd <- slab(rs) *)
  | LdSi of int * int
  | StS of int * int  (** slab(rd) <- rs, marks the cell written *)
  | StSi of int * int
  | Chk of int * int * int
      (** raise [Invalid_argument] unless lo <= rs <= hi: the
          per-dimension check of a dense run-time subscript *)
  | LdH of int * int * int array
      (** rd <- sparse table [id] at the key [(r1, ..., rk)]; an absent
          cell reads as [init] *)
  | StH of int * int array * int  (** sparse table [id] at the key <- rs *)
  | Bgt of int * int * int  (** if rs > rt then pc <- target *)
  | Blt of int * int * int
  | LoopUp of int * int * int * int
      (** var += step; if var <= limit-reg then pc <- target *)
  | LoopDown of int * int * int * int  (** same with >= (negative step) *)
  | Region of int  (** enter parallel region by id, then fall through *)
  | Halt
  (* {2 Optimizer opcodes}

     The compiler itself never emits anything below; {!Opt} introduces
     them.  The fused ([MuladdLd], [AddSt], ...) opcodes collapse an
     address-compute or arithmetic producer into its memory consumer
     when the intermediate register is provably dead; like [Ld]/[St]
     they bounds-check every arena access. *)
  | MuladdLd of int * int * int * int  (** rd <- arena(rs + imm*rt) *)
  | MuladdSt of int * int * int * int  (** arena(rs + imm*rt) <- rv *)
  | AddiLd of int * int * int  (** rd <- arena(rs + imm) *)
  | AddiSt of int * int * int  (** arena(rs + imm) <- rv *)
  | AddSt of int * int * int  (** arena(ra) <- rb + rc *)
  | SubSt of int * int * int  (** arena(ra) <- rb - rc *)
  | MulSt of int * int * int  (** arena(ra) <- rb * rc *)
  | LoopUpi of int * int * int * int
      (** var += step; if var <= limit-imm then pc <- target *)
  | LoopDowni of int * int * int * int

val branch_target : instr -> int option
(** The jump target of a branch or back-edge ([Bgt], [Blt] and the
    [LoopUp]/[LoopDown] family); [None] for every other opcode. *)

val remap_target : int array -> instr -> instr
(** [remap_target map i] moves a branch's target [t] to [map.(t)];
    other opcodes are returned unchanged.  The rewriting passes ({!Opt}'s
    fusion, the VM's counting copy) use it to keep jumps on their
    instructions after inserting or deleting code. *)

(** {1 Layout} *)

type dim = { d_lo : int; d_hi : int; d_stride : int }

type arr = {
  a_name : string;
  a_base : int;  (** arena offset of element [(d_lo, d_lo, ...)] *)
  a_dims : dim list;  (** outermost subscript first; [] for a scalar *)
  a_size : int;  (** total cells *)
}

type sparse = {
  s_id : int;  (** index of its table, the operand of [LdH]/[StH] *)
  s_name : string;
  s_rank : int;  (** key length *)
}

(** {1 Parallel regions} *)

type priv_copy = {
  pc_array : string;
  pc_arena : int;  (** the array's arena base *)
  pc_slab : int;  (** its offset inside a chunk slab *)
  pc_len : int;
}

type region = {
  rg_id : int;
  rg_node : int;  (** source loop AST node id *)
  rg_var : string;  (** surface loop variable, for reports *)
  rg_vreg : int;  (** register the driver sets to the iteration value *)
  rg_lo : int;  (** register holding the evaluated lower bound *)
  rg_hi : int;
  rg_step : int;
  rg_serial : instr array;  (** one iteration, direct arena addressing *)
  rg_par : instr array;  (** one iteration, privatized arrays in the slab *)
  rg_privs : priv_copy list;
  rg_slab : int;  (** slab size in cells (0 when nothing is privatized) *)
  rg_cost : int;  (** static instruction count of one iteration (work proxy) *)
}

type unit_ = {
  u_main : instr array;
  u_regions : region array;
  u_nregs : int;  (** register file size *)
  u_arena : int;  (** arena size in cells *)
  u_arrays : arr list;  (** the dense arrays *)
  u_sparse : sparse array;  (** the sparse arrays, indexed by [s_id] *)
}

val program :
  ?plan:(int * string list) list ->
  Ir.program ->
  syms:(string * int) list ->
  unit_
(** Compile under the given symbolic-constant values (all symbols the
    program mentions must be bound).  [plan] maps doall loop node ids to
    the arrays their verdicts privatize.
    @raise Unsupported on an unbound name. *)

(** {1 Addressing helpers} (for initialization and differential checks) *)

val addr : unit_ -> string * int list -> int option
(** Arena offset of a location, or [None] if the array is not dense,
    the arity differs, or an index falls outside the computed extent. *)

val iter_cells : unit_ -> (string -> int list -> int -> unit) -> unit
(** Enumerate every arena cell as [(array, index, offset)], in layout
    order.  Sparse arrays have no arena cells. *)

val instr_string : instr -> string
(** One instruction, rendered as in {!disasm}. *)

val disasm : unit_ -> string
(** Human-readable listing of the main code and each region's bodies. *)
