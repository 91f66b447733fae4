(* Bytecode VM: one tight tail-recursive dispatch loop over the compiled
   instruction array.  Registers and the arena are plain int arrays; the
   only bounds checks on the hot path are the arena accesses, and every
   arena opcode — plain or fused — keeps its check: a compiler or
   optimizer bug must surface as an exception, not a silent wild write.
   Slab accesses appear only in parallel region bodies.  Sparse arrays
   live in one hash table each, keyed by the subscript tuple; they are
   touched only by main code and serial loops, never from a chunk. *)

(* One sparse array's cells: an open-addressing (linear probing) table
   from subscript tuples of a fixed rank to values.  Each slot is
   [rank + 2] consecutive ints — an occupied flag, the key, the value —
   in one flat array, so a probe touches one cache line and a lookup or
   a store allocates nothing.  A key is read as [src.(ks.(0)), ...,
   src.(ks.(rank-1))]: the register file and an instruction's key
   registers on the hot path, a plain tuple and [iota] elsewhere. *)
module Cells = struct
  type t = {
    rank : int;
    width : int;  (* rank + 2 *)
    iota : int array;  (* [|0; ...; rank-1|] *)
    mutable count : int;
    mutable cap : int;  (* a power of two *)
    mutable data : int array;  (* cap * width *)
  }

  let create rank =
    let cap = 64 in
    {
      rank;
      width = rank + 2;
      iota = Array.init rank Fun.id;
      count = 0;
      cap;
      data = Array.make (cap * (rank + 2)) 0;
    }

  let hash src ks =
    let h = ref 0 in
    for j = 0 to Array.length ks - 1 do
      h := (!h lxor src.(ks.(j))) * 0x100000001b3
    done;
    let h = (!h lxor (!h lsr 32)) * 0x62a9d9ed799705f5 in
    h lxor (h lsr 29)

  (* The base of the slot holding the key, or of the free slot where it
     belongs; the load factor stays at most 1/2, so a free slot always
     exists. *)
  let slot tb src ks =
    let data = tb.data and w = tb.width and mask = tb.cap - 1 in
    let rec same b j =
      j = tb.rank || (data.(b + 1 + j) = src.(ks.(j)) && same b (j + 1))
    in
    let rec probe i =
      let b = i * w in
      if data.(b) = 0 || same b 0 then b else probe ((i + 1) land mask)
    in
    probe (hash src ks land mask)

  let occupied tb b = tb.data.(b) <> 0
  let value tb b = tb.data.(b + tb.width - 1)

  let rec put tb src ks v =
    let b = slot tb src ks in
    let data = tb.data in
    data.(b + tb.width - 1) <- v;
    if data.(b) = 0 then begin
      data.(b) <- 1;
      for j = 0 to tb.rank - 1 do
        data.(b + 1 + j) <- src.(ks.(j))
      done;
      tb.count <- tb.count + 1;
      if 2 * tb.count > tb.cap then grow tb
    end

  (* re-insert every cell into a table twice the size; [ks] walks the
     old key slots *)
  and grow tb =
    let old = tb.data and w = tb.width in
    tb.cap <- 2 * tb.cap;
    tb.data <- Array.make (tb.cap * w) 0;
    tb.count <- 0;
    let ks = Array.copy tb.iota in
    for i = 0 to (Array.length old / w) - 1 do
      let b = i * w in
      if old.(b) <> 0 then begin
        for j = 0 to tb.rank - 1 do
          ks.(j) <- b + 1 + j
        done;
        put tb old ks old.(b + w - 1)
      end
    done

  (* [f key v] for every cell; [key] is a fresh tuple *)
  let iter f tb =
    for i = 0 to tb.cap - 1 do
      let b = i * tb.width in
      if occupied tb b then f (Array.sub tb.data (b + 1) tb.rank) (value tb b)
    done

  let find tb (key : int array) =
    let b = slot tb key tb.iota in
    if occupied tb b then Some (value tb b) else None
end

type t = {
  u : Compile.unit_;
  t_arena : int array;
  t_regs : int array;
  t_sparse : Cells.t array;  (* indexed by [s_id] *)
  t_init : string -> int list -> int;  (* value of an absent sparse cell *)
}

let unit_ t = t.u
let arena t = t.t_arena

let create ?(init = fun _ _ -> 0) (u : Compile.unit_) : t =
  let a = Array.make (max 1 u.Compile.u_arena) 0 in
  Compile.iter_cells u (fun name idx off -> a.(off) <- init name idx);
  {
    u;
    t_arena = a;
    t_regs = Array.make (max 1 u.Compile.u_nregs) 0;
    t_sparse =
      Array.map (fun s -> Cells.create s.Compile.s_rank) u.Compile.u_sparse;
    t_init = init;
  }

(* Sparse accesses.  The table index is bounds-checked like an arena
   address; a read of an absent cell inserts nothing. *)
let sparse_ld t regs id ks =
  let tb = t.t_sparse.(id) in
  let b = Cells.slot tb regs ks in
  if Cells.occupied tb b then Cells.value tb b
  else
    t.t_init t.u.Compile.u_sparse.(id).Compile.s_name
      (Array.fold_right (fun r acc -> regs.(r) :: acc) ks [])

let sparse_st t regs id ks v = Cells.put t.t_sparse.(id) regs ks v

let check_index x lo hi =
  if x < lo || x > hi then invalid_arg "index out of bounds"

let trip_count ~lo ~hi ~step =
  if step > 0 then if lo > hi then 0 else ((hi - lo) / step) + 1
  else if lo < hi then 0
  else ((lo - hi) / -step) + 1

(* The dispatch loop.  [regs]/[slab]/[written] vary per chunk; [arena]
   is shared.  [on_region] only ever fires from main code (region
   bodies are compiled without nested regions). *)
let rec exec t regs slab written (code : Compile.instr array) on_region pc =
  let arena = t.t_arena in
  match Array.unsafe_get code pc with
  | Compile.Li (d, n) ->
    Array.unsafe_set regs d n;
    exec t regs slab written code on_region (pc + 1)
  | Compile.Mov (d, s) ->
    Array.unsafe_set regs d (Array.unsafe_get regs s);
    exec t regs slab written code on_region (pc + 1)
  | Compile.Add (d, a, b) ->
    Array.unsafe_set regs d (Array.unsafe_get regs a + Array.unsafe_get regs b);
    exec t regs slab written code on_region (pc + 1)
  | Compile.Sub (d, a, b) ->
    Array.unsafe_set regs d (Array.unsafe_get regs a - Array.unsafe_get regs b);
    exec t regs slab written code on_region (pc + 1)
  | Compile.Mul (d, a, b) ->
    Array.unsafe_set regs d (Array.unsafe_get regs a * Array.unsafe_get regs b);
    exec t regs slab written code on_region (pc + 1)
  | Compile.Maxr (d, a, b) ->
    Array.unsafe_set regs d
      (max (Array.unsafe_get regs a) (Array.unsafe_get regs b));
    exec t regs slab written code on_region (pc + 1)
  | Compile.Minr (d, a, b) ->
    Array.unsafe_set regs d
      (min (Array.unsafe_get regs a) (Array.unsafe_get regs b));
    exec t regs slab written code on_region (pc + 1)
  | Compile.Addi (d, s, n) ->
    Array.unsafe_set regs d (Array.unsafe_get regs s + n);
    exec t regs slab written code on_region (pc + 1)
  | Compile.Muli (d, s, n) ->
    Array.unsafe_set regs d (Array.unsafe_get regs s * n);
    exec t regs slab written code on_region (pc + 1)
  | Compile.Muladd (d, s, n, r) ->
    Array.unsafe_set regs d
      (Array.unsafe_get regs s + (n * Array.unsafe_get regs r));
    exec t regs slab written code on_region (pc + 1)
  | Compile.Ld (d, a) ->
    Array.unsafe_set regs d arena.(Array.unsafe_get regs a);
    exec t regs slab written code on_region (pc + 1)
  | Compile.Ldi (d, a) ->
    Array.unsafe_set regs d arena.(a);
    exec t regs slab written code on_region (pc + 1)
  | Compile.St (a, s) ->
    arena.(Array.unsafe_get regs a) <- Array.unsafe_get regs s;
    exec t regs slab written code on_region (pc + 1)
  | Compile.Sti (a, s) ->
    arena.(a) <- Array.unsafe_get regs s;
    exec t regs slab written code on_region (pc + 1)
  | Compile.LdS (d, a) ->
    Array.unsafe_set regs d slab.(Array.unsafe_get regs a);
    exec t regs slab written code on_region (pc + 1)
  | Compile.LdSi (d, a) ->
    Array.unsafe_set regs d slab.(a);
    exec t regs slab written code on_region (pc + 1)
  | Compile.StS (a, s) ->
    let i = Array.unsafe_get regs a in
    slab.(i) <- Array.unsafe_get regs s;
    Bytes.unsafe_set written i '\001';
    exec t regs slab written code on_region (pc + 1)
  | Compile.StSi (a, s) ->
    slab.(a) <- Array.unsafe_get regs s;
    Bytes.unsafe_set written a '\001';
    exec t regs slab written code on_region (pc + 1)
  | Compile.Chk (r, lo, hi) ->
    check_index (Array.unsafe_get regs r) lo hi;
    exec t regs slab written code on_region (pc + 1)
  | Compile.LdH (d, id, ks) ->
    Array.unsafe_set regs d (sparse_ld t regs id ks);
    exec t regs slab written code on_region (pc + 1)
  | Compile.StH (id, ks, s) ->
    sparse_st t regs id ks (Array.unsafe_get regs s);
    exec t regs slab written code on_region (pc + 1)
  | Compile.Bgt (a, b, tgt) ->
    if Array.unsafe_get regs a > Array.unsafe_get regs b then
      exec t regs slab written code on_region tgt
    else exec t regs slab written code on_region (pc + 1)
  | Compile.Blt (a, b, tgt) ->
    if Array.unsafe_get regs a < Array.unsafe_get regs b then
      exec t regs slab written code on_region tgt
    else exec t regs slab written code on_region (pc + 1)
  | Compile.LoopUp (v, step, lim, top) ->
    let x = Array.unsafe_get regs v + step in
    Array.unsafe_set regs v x;
    if x <= Array.unsafe_get regs lim then
      exec t regs slab written code on_region top
    else exec t regs slab written code on_region (pc + 1)
  | Compile.LoopDown (v, step, lim, top) ->
    let x = Array.unsafe_get regs v + step in
    Array.unsafe_set regs v x;
    if x >= Array.unsafe_get regs lim then
      exec t regs slab written code on_region top
    else exec t regs slab written code on_region (pc + 1)
  | Compile.Region rid ->
    let r = t.u.Compile.u_regions.(rid) in
    let lo = regs.(r.Compile.rg_lo) and hi = regs.(r.Compile.rg_hi) in
    let handled = on_region t r ~lo ~hi in
    if not handled then region_serial t r ~lo ~hi;
    exec t regs slab written code on_region (pc + 1)
  | Compile.MuladdLd (d, s, n, r) ->
    Array.unsafe_set regs d
      arena.(Array.unsafe_get regs s + (n * Array.unsafe_get regs r));
    exec t regs slab written code on_region (pc + 1)
  | Compile.MuladdSt (s, n, r, v) ->
    arena.(Array.unsafe_get regs s + (n * Array.unsafe_get regs r)) <-
      Array.unsafe_get regs v;
    exec t regs slab written code on_region (pc + 1)
  | Compile.AddiLd (d, s, n) ->
    Array.unsafe_set regs d arena.(Array.unsafe_get regs s + n);
    exec t regs slab written code on_region (pc + 1)
  | Compile.AddiSt (s, n, v) ->
    arena.(Array.unsafe_get regs s + n) <- Array.unsafe_get regs v;
    exec t regs slab written code on_region (pc + 1)
  | Compile.AddSt (a, b, c) ->
    arena.(Array.unsafe_get regs a) <-
      Array.unsafe_get regs b + Array.unsafe_get regs c;
    exec t regs slab written code on_region (pc + 1)
  | Compile.SubSt (a, b, c) ->
    arena.(Array.unsafe_get regs a) <-
      Array.unsafe_get regs b - Array.unsafe_get regs c;
    exec t regs slab written code on_region (pc + 1)
  | Compile.MulSt (a, b, c) ->
    arena.(Array.unsafe_get regs a) <-
      Array.unsafe_get regs b * Array.unsafe_get regs c;
    exec t regs slab written code on_region (pc + 1)
  | Compile.LoopUpi (v, step, lim, top) ->
    let x = Array.unsafe_get regs v + step in
    Array.unsafe_set regs v x;
    if x <= lim then exec t regs slab written code on_region top
    else exec t regs slab written code on_region (pc + 1)
  | Compile.LoopDowni (v, step, lim, top) ->
    let x = Array.unsafe_get regs v + step in
    Array.unsafe_set regs v x;
    if x >= lim then exec t regs slab written code on_region top
    else exec t regs slab written code on_region (pc + 1)
  | Compile.Halt -> ()

and region_serial t (r : Compile.region) ~lo ~hi =
  let step = r.Compile.rg_step in
  let continue_ v = if step > 0 then v <= hi else v >= hi in
  let regs = t.t_regs in
  let body = r.Compile.rg_serial in
  let rec go v =
    if continue_ v then begin
      regs.(r.Compile.rg_vreg) <- v;
      exec t regs [||] Bytes.empty body no_region 0;
      go (v + step)
    end
  in
  go lo

and no_region _ _ ~lo:_ ~hi:_ = false

let run ?(on_region = no_region) t =
  exec t t.t_regs [||] Bytes.empty t.u.Compile.u_main on_region 0

(* Instruction counting runs [exec] itself, on a copy of the code in
   which every basic block starts with [Addi (c, c, len)]: [c] is a
   spare register past the unit's own, [len] the block's original
   length.  A block starts at pc 0, at every branch target and after
   every branch or [Halt]; targets move to their block's counter, so a
   block entered by fall-through or by a jump is counted once either
   way, and the timed loop carries no counter at all. *)
let counted c (code : Compile.instr array) =
  let n = Array.length code in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      match Compile.branch_target i with
      | Some tgt ->
        leader.(tgt) <- true;
        leader.(pc + 1) <- true
      | None -> if i = Compile.Halt then leader.(pc + 1) <- true)
    code;
  let rec block_end pc = if pc = n || leader.(pc) then pc else block_end (pc + 1) in
  let map = Array.make (n + 1) 0 and out = ref [] and len = ref 0 in
  let emit i =
    out := i :: !out;
    incr len
  in
  Array.iteri
    (fun pc i ->
      map.(pc) <- !len;
      if leader.(pc) then emit (Compile.Addi (c, c, block_end (pc + 1) - pc));
      emit i)
    code;
  map.(n) <- !len;
  Array.of_list (List.rev_map (Compile.remap_target map) !out)

let run_count t : int =
  let u = t.u in
  let c = u.Compile.u_nregs in
  let u' =
    {
      u with
      Compile.u_main = counted c u.Compile.u_main;
      u_regions =
        Array.map
          (fun (r : Compile.region) ->
            { r with Compile.rg_serial = counted c r.Compile.rg_serial })
          u.Compile.u_regions;
    }
  in
  let regs = Array.make (c + 1) 0 in
  Array.blit t.t_regs 0 regs 0 c;
  run { t with u = u'; t_regs = regs };
  Array.blit regs 0 t.t_regs 0 c;
  regs.(c)

(* ------------------------------------------------------------------ *)
(* Chunks                                                              *)
(* ------------------------------------------------------------------ *)

type chunk = {
  ck_regs : int array;
  ck_slab : int array;
  ck_written : Bytes.t;
}

let make_chunk ?(copy_in = true) t (r : Compile.region) : chunk =
  let slab = Array.make (max 1 r.Compile.rg_slab) 0 in
  if copy_in then
    List.iter
      (fun (p : Compile.priv_copy) ->
        Array.blit t.t_arena p.Compile.pc_arena slab p.Compile.pc_slab
          p.Compile.pc_len)
      r.Compile.rg_privs;
  {
    ck_regs = Array.copy t.t_regs;
    ck_slab = slab;
    ck_written = Bytes.make (max 1 r.Compile.rg_slab) '\000';
  }

let run_chunk t (r : Compile.region) (c : chunk) ~lo ~k0 ~k1 =
  let step = r.Compile.rg_step in
  let vreg = r.Compile.rg_vreg in
  let body = r.Compile.rg_par in
  for k = k0 to k1 - 1 do
    c.ck_regs.(vreg) <- lo + (k * step);
    exec t c.ck_regs c.ck_slab c.ck_written body no_region 0
  done

let merge_chunk t (r : Compile.region) (c : chunk) =
  List.iter
    (fun (p : Compile.priv_copy) ->
      for j = 0 to p.Compile.pc_len - 1 do
        if Bytes.get c.ck_written (p.Compile.pc_slab + j) <> '\000' then
          t.t_arena.(p.Compile.pc_arena + j) <- c.ck_slab.(p.Compile.pc_slab + j)
      done)
    r.Compile.rg_privs

(* ------------------------------------------------------------------ *)
(* Differential comparison                                             *)
(* ------------------------------------------------------------------ *)

type diff = (string * int list) * int option * int option

let sparse_cells t =
  Array.to_list t.u.Compile.u_sparse
  |> List.concat_map (fun (s : Compile.sparse) ->
         let cells = ref [] in
         Cells.iter
           (fun key v -> cells := ((s.Compile.s_name, Array.to_list key), v) :: !cells)
           t.t_sparse.(s.Compile.s_id);
         !cells)
  |> List.sort compare

let sparse_find t (name, idx) =
  match
    Array.find_opt (fun (s : Compile.sparse) -> s.Compile.s_name = name)
      t.u.Compile.u_sparse
  with
  | Some s when List.length idx = s.Compile.s_rank ->
    Cells.find t.t_sparse.(s.Compile.s_id) (Array.of_list idx)
  | _ -> None

let check_against ?(init = fun _ _ -> 0) t
    (mem : ((string * int list) * int) list) : diff list =
  let written = Hashtbl.create (List.length mem * 2) in
  List.iter (fun (loc, v) -> Hashtbl.replace written loc v) mem;
  let diffs = ref [] in
  (* every interpreter-written location must match the arena or its
     sparse cell *)
  List.iter
    (fun (loc, v) ->
      match Compile.addr t.u loc with
      | None ->
        let got = sparse_find t loc in
        if got <> Some v then diffs := (loc, Some v, got) :: !diffs
      | Some off ->
        if t.t_arena.(off) <> v then
          diffs := (loc, Some v, Some t.t_arena.(off)) :: !diffs)
    mem;
  (* every arena cell the interpreter never wrote must still be initial *)
  Compile.iter_cells t.u (fun name idx off ->
      let loc = (name, idx) in
      if not (Hashtbl.mem written loc) then begin
        let v0 = init name idx in
        if t.t_arena.(off) <> v0 then
          diffs := (loc, Some v0, Some t.t_arena.(off)) :: !diffs
      end);
  (* a sparse cell exists only where the program wrote, as in the
     interpreter's store: one the interpreter never wrote is a diff *)
  List.iter
    (fun (loc, v) ->
      if not (Hashtbl.mem written loc) then diffs := (loc, None, Some v) :: !diffs)
    (sparse_cells t);
  List.rev !diffs

let equal_state a b = a.t_arena = b.t_arena && sparse_cells a = sparse_cells b

let diff_string (diffs : diff list) =
  String.concat "; "
    (List.map
       (fun ((name, idx), a, b) ->
         let v = function Some x -> string_of_int x | None -> "_" in
         Printf.sprintf "%s(%s): interp=%s vm=%s" name
           (String.concat "," (List.map string_of_int idx))
           (v a) (v b))
       diffs)
