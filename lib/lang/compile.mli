(** Bytecode compiler: petit programs lowered to a register machine over
    flat memory.

    Every array (and scalar — a 0-dimensional array) is laid out in one
    contiguous integer arena.  Extents come from interval analysis of
    the actual accesses under the given symbolic-constant values, so the
    arena is sized by what the program touches, not by the (routinely
    exceeded) declared ranges.  Subscripts must be affine in the loop
    variables; their addresses compile to strength-reduced [Muladd]
    chains with every symbolic constant folded at compile time.  Loops
    become counted back-edges; expression trees become three-address
    code with constant folding.  Nothing on the hot path hashes, boxes
    or allocates.

    When a [plan] is supplied (doall loop node -> privatized arrays, as
    produced by [Xform.Exec.plan]), each plan loop reached outside any
    other plan loop compiles to a {e parallel region}: the main code
    evaluates the loop bounds into registers and issues a single
    {!constructor:Region} instruction; the region carries two compiled
    bodies for one iteration — [rg_serial] addressing the shared arena
    directly, and [rg_par] addressing each privatized array inside a
    per-chunk scratch slab ([LdS]/[StS]).  How iterations are driven
    (serially or chunked over domains) is the VM driver's choice.

    Programs using opaque (non-affine) subscripts or loop bounds — index
    arrays, products of variables — raise {!Unsupported}; callers fall
    back to the tracing interpreter. *)

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

(** {1 Layout} *)

type dim = { d_lo : int; d_hi : int; d_stride : int }

type arr = {
  a_name : string;
  a_base : int;  (** arena offset of element [(d_lo, d_lo, ...)] *)
  a_dims : dim list;  (** outermost subscript first; [] for a scalar *)
  a_size : int;  (** total cells *)
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
  u_arrays : arr list;
}

val program :
  ?plan:(int * string list) list ->
  Ir.program ->
  syms:(string * int) list ->
  unit_
(** Compile under the given symbolic-constant values (all symbols the
    program mentions must be bound).  [plan] maps doall loop node ids to
    the arrays their verdicts privatize.
    @raise Unsupported on non-affine subscripts or bounds. *)

(** {1 Addressing helpers} (for initialization and differential checks) *)

val addr : unit_ -> string * int list -> int option
(** Arena offset of a location, or [None] if the array is unknown, the
    arity differs, or an index falls outside the computed extent. *)

val iter_cells : unit_ -> (string -> int list -> int -> unit) -> unit
(** Enumerate every arena cell as [(array, index, offset)], in layout
    order. *)

val instr_string : instr -> string
(** One instruction, rendered as in {!disasm}. *)

val disasm : unit_ -> string
(** Human-readable listing of the main code and each region's bodies. *)
