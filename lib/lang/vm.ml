(* Bytecode VM: one tight tail-recursive dispatch loop over the compiled
   instruction array.  Registers and the arena are plain int arrays; the
   only bounds checks on the hot path are the arena accesses, and every
   arena opcode — plain or fused — keeps its check: a compiler or
   optimizer bug must surface as an exception, not a silent wild write.
   Slab accesses appear only in parallel region bodies. *)

type t = {
  u : Compile.unit_;
  t_arena : int array;
  t_regs : int array;
}

let unit_ t = t.u
let arena t = t.t_arena

let create ?(init = fun _ _ -> 0) (u : Compile.unit_) : t =
  let a = Array.make (max 1 u.Compile.u_arena) 0 in
  Compile.iter_cells u (fun name idx off -> a.(off) <- init name idx);
  { u; t_arena = a; t_regs = Array.make (max 1 u.Compile.u_nregs) 0 }

let region_trip (r : Compile.region) ~lo ~hi =
  let step = r.Compile.rg_step in
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

let run_region_serial = region_serial

let run ?(on_region = no_region) t =
  exec t t.t_regs [||] Bytes.empty t.u.Compile.u_main on_region 0

(* Counting twin of [exec]: same semantics (regions run serially), one
   counter increment per dispatched instruction.  A separate function so
   the hot loop above stays branch-free; this one is only used to
   explain speedups (dynamic instruction counts in the bench artifact),
   never to time them. *)
let run_count t : int =
  let n = ref 0 in
  let arena = t.t_arena in
  let regs = t.t_regs in
  let rec go (code : Compile.instr array) pc =
    incr n;
    match code.(pc) with
    | Compile.Li (d, x) ->
      regs.(d) <- x;
      go code (pc + 1)
    | Compile.Mov (d, s) ->
      regs.(d) <- regs.(s);
      go code (pc + 1)
    | Compile.Add (d, a, b) ->
      regs.(d) <- regs.(a) + regs.(b);
      go code (pc + 1)
    | Compile.Sub (d, a, b) ->
      regs.(d) <- regs.(a) - regs.(b);
      go code (pc + 1)
    | Compile.Mul (d, a, b) ->
      regs.(d) <- regs.(a) * regs.(b);
      go code (pc + 1)
    | Compile.Maxr (d, a, b) ->
      regs.(d) <- max regs.(a) regs.(b);
      go code (pc + 1)
    | Compile.Minr (d, a, b) ->
      regs.(d) <- min regs.(a) regs.(b);
      go code (pc + 1)
    | Compile.Addi (d, s, x) ->
      regs.(d) <- regs.(s) + x;
      go code (pc + 1)
    | Compile.Muli (d, s, x) ->
      regs.(d) <- regs.(s) * x;
      go code (pc + 1)
    | Compile.Muladd (d, s, x, r) ->
      regs.(d) <- regs.(s) + (x * regs.(r));
      go code (pc + 1)
    | Compile.Ld (d, a) ->
      regs.(d) <- arena.(regs.(a));
      go code (pc + 1)
    | Compile.Ldi (d, a) ->
      regs.(d) <- arena.(a);
      go code (pc + 1)
    | Compile.St (a, s) ->
      arena.(regs.(a)) <- regs.(s);
      go code (pc + 1)
    | Compile.Sti (a, s) ->
      arena.(a) <- regs.(s);
      go code (pc + 1)
    | Compile.MuladdLd (d, s, x, r) ->
      regs.(d) <- arena.(regs.(s) + (x * regs.(r)));
      go code (pc + 1)
    | Compile.MuladdSt (s, x, r, v) ->
      arena.(regs.(s) + (x * regs.(r))) <- regs.(v);
      go code (pc + 1)
    | Compile.AddiLd (d, s, x) ->
      regs.(d) <- arena.(regs.(s) + x);
      go code (pc + 1)
    | Compile.AddiSt (s, x, v) ->
      arena.(regs.(s) + x) <- regs.(v);
      go code (pc + 1)
    | Compile.AddSt (a, b, c) ->
      arena.(regs.(a)) <- regs.(b) + regs.(c);
      go code (pc + 1)
    | Compile.SubSt (a, b, c) ->
      arena.(regs.(a)) <- regs.(b) - regs.(c);
      go code (pc + 1)
    | Compile.MulSt (a, b, c) ->
      arena.(regs.(a)) <- regs.(b) * regs.(c);
      go code (pc + 1)
    | Compile.LdS _ | Compile.LdSi _ | Compile.StS _ | Compile.StSi _ ->
      invalid_arg "Vm.run_count: slab access outside a parallel chunk"
    | Compile.Bgt (a, b, tgt) ->
      go code (if regs.(a) > regs.(b) then tgt else pc + 1)
    | Compile.Blt (a, b, tgt) ->
      go code (if regs.(a) < regs.(b) then tgt else pc + 1)
    | Compile.LoopUp (v, step, lim, top) ->
      let x = regs.(v) + step in
      regs.(v) <- x;
      go code (if x <= regs.(lim) then top else pc + 1)
    | Compile.LoopDown (v, step, lim, top) ->
      let x = regs.(v) + step in
      regs.(v) <- x;
      go code (if x >= regs.(lim) then top else pc + 1)
    | Compile.LoopUpi (v, step, lim, top) ->
      let x = regs.(v) + step in
      regs.(v) <- x;
      go code (if x <= lim then top else pc + 1)
    | Compile.LoopDowni (v, step, lim, top) ->
      let x = regs.(v) + step in
      regs.(v) <- x;
      go code (if x >= lim then top else pc + 1)
    | Compile.Region rid ->
      let r = t.u.Compile.u_regions.(rid) in
      let lo = regs.(r.Compile.rg_lo) and hi = regs.(r.Compile.rg_hi) in
      let step = r.Compile.rg_step in
      let rec iter v =
        if (if step > 0 then v <= hi else v >= hi) then begin
          regs.(r.Compile.rg_vreg) <- v;
          go r.Compile.rg_serial 0;
          iter (v + step)
        end
      in
      iter lo;
      go code (pc + 1)
    | Compile.Halt -> ()
  in
  go t.u.Compile.u_main 0;
  !n

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

let check_against ?(init = fun _ _ -> 0) t
    (mem : ((string * int list) * int) list) : diff list =
  let written = Hashtbl.create (List.length mem * 2) in
  List.iter (fun (loc, v) -> Hashtbl.replace written loc v) mem;
  let diffs = ref [] in
  (* every interpreter-written location must match the arena *)
  List.iter
    (fun (loc, v) ->
      match Compile.addr t.u loc with
      | None -> diffs := (loc, Some v, None) :: !diffs
      | Some off ->
        if t.t_arena.(off) <> v then
          diffs := (loc, Some v, Some t.t_arena.(off)) :: !diffs)
    mem;
  (* every cell the interpreter never wrote must still be initial *)
  Compile.iter_cells t.u (fun name idx off ->
      let loc = (name, idx) in
      if not (Hashtbl.mem written loc) then begin
        let v0 = init name idx in
        if t.t_arena.(off) <> v0 then
          diffs := (loc, Some v0, Some t.t_arena.(off)) :: !diffs
      end);
  List.rev !diffs

let equal_state a b = a.t_arena = b.t_arena

let diff_string (diffs : diff list) =
  String.concat "; "
    (List.map
       (fun ((name, idx), a, b) ->
         let v = function Some x -> string_of_int x | None -> "_" in
         Printf.sprintf "%s(%s): interp=%s vm=%s" name
           (String.concat "," (List.map string_of_int idx))
           (v a) (v b))
       diffs)
