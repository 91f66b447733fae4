(* Bytecode compiler for petit: flat arena memory, three-address code,
   affine addresses resolved at compile time.  See compile.mli for the
   model.  The compiler runs under concrete symbolic-constant values, so
   every symbol folds to an immediate and array extents can be computed
   exactly by interval analysis over the accesses. *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type instr =
  | Li of int * int
  | Mov of int * int
  | Add of int * int * int
  | Sub of int * int * int
  | Mul of int * int * int
  | Maxr of int * int * int
  | Minr of int * int * int
  | Addi of int * int * int
  | Muli of int * int * int
  | Muladd of int * int * int * int
  | Ld of int * int
  | Ldi of int * int
  | St of int * int
  | Sti of int * int
  | LdS of int * int
  | LdSi of int * int
  | StS of int * int
  | StSi of int * int
  | Bgt of int * int * int
  | Blt of int * int * int
  | LoopUp of int * int * int * int
  | LoopDown of int * int * int * int
  | Region of int
  | Halt
  (* Optimizer-only opcodes below: the compiler never emits these; they
     are introduced by [Opt] (superinstruction fusion).  Every memory
     opcode bounds-checks its arena access. *)
  | MuladdLd of int * int * int * int
  | MuladdSt of int * int * int * int
  | AddiLd of int * int * int
  | AddiSt of int * int * int
  | AddSt of int * int * int
  | SubSt of int * int * int
  | MulSt of int * int * int
  | LoopUpi of int * int * int * int
  | LoopDowni of int * int * int * int

type dim = { d_lo : int; d_hi : int; d_stride : int }

type arr = {
  a_name : string;
  a_base : int;
  a_dims : dim list;
  a_size : int;
}

type priv_copy = {
  pc_array : string;
  pc_arena : int;
  pc_slab : int;
  pc_len : int;
}

type region = {
  rg_id : int;
  rg_node : int;
  rg_var : string;
  rg_vreg : int;
  rg_lo : int;
  rg_hi : int;
  rg_step : int;
  rg_serial : instr array;
  rg_par : instr array;
  rg_privs : priv_copy list;
  rg_slab : int;
  rg_cost : int;
}

type unit_ = {
  u_main : instr array;
  u_regions : region array;
  u_nregs : int;
  u_arena : int;
  u_arrays : arr list;
}

(* ------------------------------------------------------------------ *)
(* Interval analysis: array extents from the accesses                  *)
(* ------------------------------------------------------------------ *)

(* Evaluate an expression to a conservative [lo, hi] interval under
   concrete symbols and loop-variable intervals.  Anything involving an
   array read is opaque and unsupported (index arrays in subscripts or
   bounds cannot be sized at compile time). *)
let rec ival syms env (e : Ast.expr) : int * int =
  match e with
  | Ast.Int n -> (n, n)
  | Ast.Name s -> (
    match List.assoc_opt s env with
    | Some iv -> iv
    | None -> (
      match List.assoc_opt s syms with
      | Some v -> (v, v)
      | None -> unsupported "unbound name %s" s))
  | Ast.Neg a ->
    let l, h = ival syms env a in
    (-h, -l)
  | Ast.Add (a, b) ->
    let la, ha = ival syms env a and lb, hb = ival syms env b in
    (la + lb, ha + hb)
  | Ast.Sub (a, b) ->
    let la, ha = ival syms env a and lb, hb = ival syms env b in
    (la - hb, ha - lb)
  | Ast.Mul (a, b) ->
    let la, ha = ival syms env a and lb, hb = ival syms env b in
    let ps = [ la * lb; la * hb; ha * lb; ha * hb ] in
    (List.fold_left min max_int ps, List.fold_left max min_int ps)
  | Ast.Max (a, b) ->
    let la, ha = ival syms env a and lb, hb = ival syms env b in
    (max la lb, max ha hb)
  | Ast.Min (a, b) ->
    let la, ha = ival syms env a and lb, hb = ival syms env b in
    (min la lb, min ha hb)
  | Ast.Ref (name, _) ->
    unsupported "opaque term (read of %s) in subscript or bound" name

(* Loop-variable interval covering every iteration, both step signs; an
   interval that is empty everywhere still gets a 1-point placeholder so
   the (never-executed) body scans cleanly. *)
let loop_interval syms env ~lo ~hi ~step =
  let llo, lhi = ival syms env lo and hlo, hhi = ival syms env hi in
  let a, b = if step > 0 then (llo, hhi) else (hlo, lhi) in
  if a > b then (a, a) else (a, b)

type extents = (string, (int * int) array) Hashtbl.t

let record_access (ext : extents) syms env name (subs : Ast.expr list) =
  let ivs = Array.of_list (List.map (ival syms env) subs) in
  match Hashtbl.find_opt ext name with
  | None -> Hashtbl.replace ext name ivs
  | Some old ->
    if Array.length old <> Array.length ivs then
      unsupported "array %s used with inconsistent arity" name;
    Array.iteri
      (fun i (l, h) ->
        let ol, oh = old.(i) in
        old.(i) <- (min ol l, max oh h))
      ivs

let rec record_expr ext syms env (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Name _ -> ()
  | Ast.Neg a -> record_expr ext syms env a
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b)
  | Ast.Max (a, b) | Ast.Min (a, b) ->
    record_expr ext syms env a;
    record_expr ext syms env b
  | Ast.Ref (name, subs) ->
    List.iter (record_expr ext syms env) subs;
    record_access ext syms env name subs

let rec scan_stmt ext syms env (s : Ir.istmt) =
  match s with
  | Ir.IAssign { lhs = name, subs; rhs; _ } ->
    List.iter (record_expr ext syms env) subs;
    record_access ext syms env name subs;
    record_expr ext syms env rhs
  | Ir.IFor { var; lo; hi; step; body; _ } ->
    let iv = loop_interval syms env ~lo ~hi ~step in
    List.iter (scan_stmt ext syms ((var, iv) :: env)) body

(* Row-major layout of all extents into one arena. *)
let layout_arrays (ext : extents) : (string, arr) Hashtbl.t * int =
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) ext [] |> List.sort compare
  in
  let tbl = Hashtbl.create 16 in
  let base = ref 0 in
  List.iter
    (fun name ->
      let ivs = Hashtbl.find ext name in
      let n = Array.length ivs in
      let strides = Array.make n 1 in
      for i = n - 2 downto 0 do
        let l, h = ivs.(i + 1) in
        strides.(i) <- strides.(i + 1) * (h - l + 1)
      done;
      let size =
        if n = 0 then 1
        else
          let l, h = ivs.(0) in
          strides.(0) * (h - l + 1)
      in
      if size < 0 || !base + size > 1 lsl 28 then
        unsupported "arena too large (array %s)" name;
      let dims =
        List.init n (fun i ->
            let l, h = ivs.(i) in
            { d_lo = l; d_hi = h; d_stride = strides.(i) })
      in
      Hashtbl.replace tbl name
        { a_name = name; a_base = !base; a_dims = dims; a_size = size };
      base := !base + size)
    names;
  (tbl, !base)

(* ------------------------------------------------------------------ *)
(* Code buffers                                                        *)
(* ------------------------------------------------------------------ *)

type buf = { mutable b_code : instr array; mutable b_len : int }

let new_buf () = { b_code = Array.make 64 Halt; b_len = 0 }

let emit b i =
  if b.b_len = Array.length b.b_code then begin
    let c = Array.make (2 * b.b_len) Halt in
    Array.blit b.b_code 0 c 0 b.b_len;
    b.b_code <- c
  end;
  b.b_code.(b.b_len) <- i;
  b.b_len <- b.b_len + 1

let here b = b.b_len
let patch b pc i = b.b_code.(pc) <- i
let finish b = Array.sub b.b_code 0 b.b_len

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* A compiled value: a known constant (foldable into consumers) or a
   register. *)
type rv = Imm of int | Reg of int

type st = {
  c_syms : (string * int) list;
  mutable c_next : int;  (* register allocator *)
  c_arrs : (string, arr) Hashtbl.t;
  mutable c_regions : region list;  (* reversed *)
  mutable c_nregions : int;
}

let fresh st =
  let r = st.c_next in
  st.c_next <- r + 1;
  r

let materialize st buf = function
  | Reg r -> r
  | Imm n ->
    let r = fresh st in
    emit buf (Li (r, n));
    r

(* Affine form of a subscript over loop-variable registers:
   constant + sum of coeff * reg. *)
type aff = { ac : int; at : (int * int) list }

let aff_add a b =
  let at =
    List.fold_left
      (fun acc (r, c) ->
        match List.assoc_opt r acc with
        | None -> (r, c) :: acc
        | Some c0 ->
          let acc = List.remove_assoc r acc in
          if c0 + c = 0 then acc else (r, c0 + c) :: acc)
      a.at b.at
  in
  { ac = a.ac + b.ac; at }

let aff_scale k a =
  if k = 0 then { ac = 0; at = [] }
  else { ac = k * a.ac; at = List.map (fun (r, c) -> (r, k * c)) a.at }

let rec affx st env (e : Ast.expr) : aff =
  match e with
  | Ast.Int n -> { ac = n; at = [] }
  | Ast.Name s -> (
    match List.assoc_opt s env with
    | Some r -> { ac = 0; at = [ (r, 1) ] }
    | None -> (
      match List.assoc_opt s st.c_syms with
      | Some v -> { ac = v; at = [] }
      | None -> unsupported "unbound name %s" s))
  | Ast.Neg a -> aff_scale (-1) (affx st env a)
  | Ast.Add (a, b) -> aff_add (affx st env a) (affx st env b)
  | Ast.Sub (a, b) -> aff_add (affx st env a) (aff_scale (-1) (affx st env b))
  | Ast.Mul (a, b) -> (
    let fa = affx st env a and fb = affx st env b in
    match (fa.at, fb.at) with
    | [], _ -> aff_scale fa.ac fb
    | _, [] -> aff_scale fb.ac fa
    | _ -> unsupported "non-affine subscript (product of variables)")
  | Ast.Max (a, b) | Ast.Min (a, b) -> (
    let fa = affx st env a and fb = affx st env b in
    match (fa.at, fb.at) with
    | [], [] ->
      let f = match e with Ast.Max _ -> max | _ -> min in
      { ac = f fa.ac fb.ac; at = [] }
    | _ -> unsupported "max/min in subscript")
  | Ast.Ref (name, _) ->
    unsupported "opaque subscript (read of index array %s)" name

(* Emit the affine value into a register chain: one Muladd per extra
   term, the constant folded into the first instruction or appended. *)
let gen_affine st buf (a : aff) : rv =
  match a.at with
  | [] -> Imm a.ac
  | (r0, c0) :: rest ->
    let sorted = List.sort compare rest in
    if sorted = [] && c0 = 1 && a.ac = 0 then Reg r0
    else begin
      let d = fresh st in
      (if c0 = 1 then
         if a.ac = 0 then emit buf (Mov (d, r0))
         else emit buf (Addi (d, r0, a.ac))
       else begin
         emit buf (Muli (d, r0, c0));
         if a.ac <> 0 then emit buf (Addi (d, d, a.ac))
       end);
      (* constant already folded in *)
      List.iter (fun (r, c) -> emit buf (Muladd (d, d, c, r))) sorted;
      Reg d
    end

(* The arena (or slab) address of [name] at the given subscripts.
   [slabs] maps privatized arrays to their slab base; membership also
   selects the slab-addressed load/store opcodes at the call sites. *)
let addr_rv st buf env ~slabs name (subs : Ast.expr list) : rv =
  let arr =
    match Hashtbl.find_opt st.c_arrs name with
    | Some a -> a
    | None -> unsupported "array %s has no layout" name
  in
  if List.length subs <> List.length arr.a_dims then
    unsupported "array %s used with inconsistent arity" name;
  let base =
    match slabs with
    | Some tbl -> (
      match Hashtbl.find_opt tbl name with
      | Some slab_base -> slab_base
      | None -> arr.a_base)
    | None -> arr.a_base
  in
  let a =
    List.fold_left2
      (fun acc sub d ->
        let f = affx st env sub in
        aff_add acc
          (aff_scale d.d_stride { f with ac = f.ac - d.d_lo }))
      { ac = base; at = [] }
      subs arr.a_dims
  in
  gen_affine st buf a

let in_slab ~slabs name =
  match slabs with Some tbl -> Hashtbl.mem tbl name | None -> false

let rec cexpr st buf env ~slabs (e : Ast.expr) : rv =
  let bin a b fold big imm_r =
    let ra = cexpr st buf env ~slabs a and rb = cexpr st buf env ~slabs b in
    match (ra, rb) with
    | Imm x, Imm y -> Imm (fold x y)
    | _ -> (
      match imm_r (ra, rb) with
      | Some i -> i
      | None ->
        let x = materialize st buf ra and y = materialize st buf rb in
        let d = fresh st in
        emit buf (big d x y);
        Reg d)
  in
  match e with
  | Ast.Int n -> Imm n
  | Ast.Name s -> (
    match List.assoc_opt s env with
    | Some r -> Reg r
    | None -> (
      match List.assoc_opt s st.c_syms with
      | Some v -> Imm v
      | None -> unsupported "unbound name %s" s))
  | Ast.Neg a -> (
    match cexpr st buf env ~slabs a with
    | Imm n -> Imm (-n)
    | Reg r ->
      let d = fresh st in
      emit buf (Muli (d, r, -1));
      Reg d)
  | Ast.Add (a, b) ->
    bin a b ( + )
      (fun d x y -> Add (d, x, y))
      (fun (ra, rb) ->
        match (ra, rb) with
        | Reg r, Imm n | Imm n, Reg r ->
          if n = 0 then Some (Reg r)
          else begin
            let d = fresh st in
            emit buf (Addi (d, r, n));
            Some (Reg d)
          end
        | _ -> None)
  | Ast.Sub (a, b) ->
    bin a b ( - )
      (fun d x y -> Sub (d, x, y))
      (fun (ra, rb) ->
        match (ra, rb) with
        | Reg r, Imm n ->
          if n = 0 then Some (Reg r)
          else begin
            let d = fresh st in
            emit buf (Addi (d, r, -n));
            Some (Reg d)
          end
        | Imm n, Reg r ->
          let d = fresh st in
          emit buf (Muli (d, r, -1));
          if n <> 0 then emit buf (Addi (d, d, n));
          Some (Reg d)
        | _ -> None)
  | Ast.Mul (a, b) ->
    bin a b ( * )
      (fun d x y -> Mul (d, x, y))
      (fun (ra, rb) ->
        match (ra, rb) with
        | Reg r, Imm n | Imm n, Reg r ->
          if n = 1 then Some (Reg r)
          else begin
            let d = fresh st in
            emit buf (Muli (d, r, n));
            Some (Reg d)
          end
        | _ -> None)
  | Ast.Max (a, b) ->
    bin a b max (fun d x y -> Maxr (d, x, y)) (fun _ -> None)
  | Ast.Min (a, b) ->
    bin a b min (fun d x y -> Minr (d, x, y)) (fun _ -> None)
  | Ast.Ref (name, subs) ->
    let slab = in_slab ~slabs name in
    let addr = addr_rv st buf env ~slabs name subs in
    let d = fresh st in
    (match addr with
    | Imm a -> emit buf (if slab then LdSi (d, a) else Ldi (d, a))
    | Reg r -> emit buf (if slab then LdS (d, r) else Ld (d, r)));
    Reg d

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

let trip l h step =
  if step > 0 then if l > h then 0 else ((h - l) / step) + 1
  else if l < h then 0
  else ((l - h) / -step) + 1

let rec cstmt st buf env ~plan ~slabs (s : Ir.istmt) =
  match s with
  | Ir.IAssign { lhs = name, subs; rhs; _ } ->
    let v = cexpr st buf env ~slabs rhs in
    let r = materialize st buf v in
    let slab = in_slab ~slabs name in
    (match addr_rv st buf env ~slabs name subs with
    | Imm a -> emit buf (if slab then StSi (a, r) else Sti (a, r))
    | Reg ra -> emit buf (if slab then StS (ra, r) else St (ra, r)))
  | Ir.IFor { node_id; var; lo; hi; step; body; _ } -> (
    match
      match plan with
      | Some pl -> List.assoc_opt node_id pl
      | None -> None
    with
    | Some privs -> cregion st buf env node_id var lo hi step body privs
    | None -> (
      let lo_rv = cexpr st buf env ~slabs lo in
      let hi_rv = cexpr st buf env ~slabs hi in
      match (lo_rv, hi_rv) with
      | Imm l, Imm h when trip l h step = 0 -> ()
      | _ ->
        let v = fresh st in
        (match lo_rv with
        | Imm n -> emit buf (Li (v, n))
        | Reg r -> emit buf (Mov (v, r)));
        let hreg = materialize st buf hi_rv in
        let statically_nonempty =
          match (lo_rv, hi_rv) with
          | Imm l, Imm h -> trip l h step > 0
          | _ -> false
        in
        let guard =
          if statically_nonempty then None
          else begin
            let pc = here buf in
            emit buf Halt;
            (* placeholder *)
            Some pc
          end
        in
        let top = here buf in
        List.iter (cstmt st buf ((var, v) :: env) ~plan ~slabs) body;
        emit buf
          (if step > 0 then LoopUp (v, step, hreg, top)
           else LoopDown (v, step, hreg, top));
        Option.iter
          (fun pc ->
            patch buf pc
              (if step > 0 then Bgt (v, hreg, here buf)
               else Blt (v, hreg, here buf)))
          guard))

(* A plan doall loop reached in main code: evaluate the bounds, record a
   region with serial and parallel one-iteration bodies, emit [Region].
   Plan loops inside the body run serially within an iteration (the
   dynamically-outermost doall wins), so bodies compile with no plan. *)
and cregion st buf env node_id var lo hi step body privs =
  let lo_reg = materialize st buf (cexpr st buf env ~slabs:None lo) in
  let hi_reg = materialize st buf (cexpr st buf env ~slabs:None hi) in
  let vreg = fresh st in
  let env' = (var, vreg) :: env in
  let rg_privs, rg_slab =
    List.fold_left
      (fun (acc, off) name ->
        match Hashtbl.find_opt st.c_arrs name with
        | None -> (acc, off)  (* never-accessed array: nothing to copy *)
        | Some a ->
          ( { pc_array = name; pc_arena = a.a_base; pc_slab = off;
              pc_len = a.a_size }
            :: acc,
            off + a.a_size ))
      ([], 0) privs
  in
  let rg_privs = List.rev rg_privs in
  let compile_body ~slabs =
    let b = new_buf () in
    List.iter (cstmt st b env' ~plan:None ~slabs) body;
    emit b Halt;
    finish b
  in
  let rg_serial = compile_body ~slabs:None in
  let slab_tbl = Hashtbl.create 4 in
  List.iter (fun p -> Hashtbl.replace slab_tbl p.pc_array p.pc_slab) rg_privs;
  let rg_par = compile_body ~slabs:(Some slab_tbl) in
  let rid = st.c_nregions in
  st.c_nregions <- rid + 1;
  st.c_regions <-
    {
      rg_id = rid;
      rg_node = node_id;
      rg_var = var;
      rg_vreg = vreg;
      rg_lo = lo_reg;
      rg_hi = hi_reg;
      rg_step = step;
      rg_serial;
      rg_par;
      rg_privs;
      rg_slab;
      rg_cost = Array.length rg_serial;
    }
    :: st.c_regions;
  emit buf (Region rid)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let program ?plan (prog : Ir.program) ~syms : unit_ =
  let ext : extents = Hashtbl.create 16 in
  List.iter (scan_stmt ext syms []) prog.Ir.stmts;
  let arrs, arena = layout_arrays ext in
  let st =
    { c_syms = syms; c_next = 0; c_arrs = arrs; c_regions = []; c_nregions = 0 }
  in
  let buf = new_buf () in
  List.iter (cstmt st buf [] ~plan ~slabs:None) prog.Ir.stmts;
  emit buf Halt;
  let arrays =
    Hashtbl.fold (fun _ a acc -> a :: acc) arrs []
    |> List.sort (fun a b -> compare a.a_base b.a_base)
  in
  {
    u_main = finish buf;
    u_regions = Array.of_list (List.rev st.c_regions);
    u_nregs = st.c_next;
    u_arena = arena;
    u_arrays = arrays;
  }

(* ------------------------------------------------------------------ *)
(* Addressing helpers                                                  *)
(* ------------------------------------------------------------------ *)

let addr (u : unit_) ((name, idx) : string * int list) : int option =
  match List.find_opt (fun a -> a.a_name = name) u.u_arrays with
  | None -> None
  | Some a ->
    if List.length idx <> List.length a.a_dims then None
    else begin
      let ok = ref true in
      let off =
        List.fold_left2
          (fun acc i d ->
            if i < d.d_lo || i > d.d_hi then ok := false;
            acc + ((i - d.d_lo) * d.d_stride))
          a.a_base idx a.a_dims
      in
      if !ok then Some off else None
    end

let iter_cells (u : unit_) f =
  List.iter
    (fun a ->
      let rec go dims idx_rev off =
        match dims with
        | [] -> f a.a_name (List.rev idx_rev) off
        | d :: rest ->
          for i = d.d_lo to d.d_hi do
            go rest (i :: idx_rev) (off + ((i - d.d_lo) * d.d_stride))
          done
      in
      go a.a_dims [] a.a_base)
    u.u_arrays

(* ------------------------------------------------------------------ *)
(* Disassembly                                                         *)
(* ------------------------------------------------------------------ *)

let instr_string = function
  | Li (d, n) -> Printf.sprintf "li    r%d, %d" d n
  | Mov (d, s) -> Printf.sprintf "mov   r%d, r%d" d s
  | Add (d, a, b) -> Printf.sprintf "add   r%d, r%d, r%d" d a b
  | Sub (d, a, b) -> Printf.sprintf "sub   r%d, r%d, r%d" d a b
  | Mul (d, a, b) -> Printf.sprintf "mul   r%d, r%d, r%d" d a b
  | Maxr (d, a, b) -> Printf.sprintf "max   r%d, r%d, r%d" d a b
  | Minr (d, a, b) -> Printf.sprintf "min   r%d, r%d, r%d" d a b
  | Addi (d, s, n) -> Printf.sprintf "addi  r%d, r%d, %d" d s n
  | Muli (d, s, n) -> Printf.sprintf "muli  r%d, r%d, %d" d s n
  | Muladd (d, s, n, t) -> Printf.sprintf "mulad r%d, r%d, %d*r%d" d s n t
  | Ld (d, a) -> Printf.sprintf "ld    r%d, [r%d]" d a
  | Ldi (d, a) -> Printf.sprintf "ld    r%d, [%d]" d a
  | St (a, s) -> Printf.sprintf "st    [r%d], r%d" a s
  | Sti (a, s) -> Printf.sprintf "st    [%d], r%d" a s
  | LdS (d, a) -> Printf.sprintf "lds   r%d, [r%d]" d a
  | LdSi (d, a) -> Printf.sprintf "lds   r%d, [%d]" d a
  | StS (a, s) -> Printf.sprintf "sts   [r%d], r%d" a s
  | StSi (a, s) -> Printf.sprintf "sts   [%d], r%d" a s
  | Bgt (a, b, t) -> Printf.sprintf "bgt   r%d, r%d, %d" a b t
  | Blt (a, b, t) -> Printf.sprintf "blt   r%d, r%d, %d" a b t
  | LoopUp (v, s, l, t) -> Printf.sprintf "loop+ r%d += %d <= r%d -> %d" v s l t
  | LoopDown (v, s, l, t) ->
    Printf.sprintf "loop- r%d += %d >= r%d -> %d" v s l t
  | Region r -> Printf.sprintf "region %d" r
  | Halt -> "halt"
  | MuladdLd (d, s, n, t) -> Printf.sprintf "mald  r%d, [r%d + %d*r%d]" d s n t
  | MuladdSt (s, n, t, v) -> Printf.sprintf "mast  [r%d + %d*r%d], r%d" s n t v
  | AddiLd (d, s, n) -> Printf.sprintf "aild  r%d, [r%d + %d]" d s n
  | AddiSt (s, n, v) -> Printf.sprintf "aist  [r%d + %d], r%d" s n v
  | AddSt (a, b, c) -> Printf.sprintf "addst [r%d], r%d + r%d" a b c
  | SubSt (a, b, c) -> Printf.sprintf "subst [r%d], r%d - r%d" a b c
  | MulSt (a, b, c) -> Printf.sprintf "mulst [r%d], r%d * r%d" a b c
  | LoopUpi (v, s, l, t) -> Printf.sprintf "loop+ r%d += %d <= %d -> %d" v s l t
  | LoopDowni (v, s, l, t) ->
    Printf.sprintf "loop- r%d += %d >= %d -> %d" v s l t

let disasm (u : unit_) : string =
  let b = Buffer.create 1024 in
  let code name c =
    Buffer.add_string b (name ^ ":\n");
    Array.iteri
      (fun i ins ->
        Buffer.add_string b (Printf.sprintf "  %3d  %s\n" i (instr_string ins)))
      c
  in
  List.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "array %s @%d size %d [%s]\n" a.a_name a.a_base a.a_size
           (String.concat ","
              (List.map
                 (fun d -> Printf.sprintf "%d:%d/%d" d.d_lo d.d_hi d.d_stride)
                 a.a_dims))))
    u.u_arrays;
  code "main" u.u_main;
  Array.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "region %d (loop %s, node %d, step %d, slab %d)\n"
           r.rg_id r.rg_var r.rg_node r.rg_step r.rg_slab);
      code "  serial" r.rg_serial;
      code "  par" r.rg_par)
    u.u_regions;
  Buffer.contents b
