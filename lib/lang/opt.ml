(* Bytecode optimizer: superinstruction fusion over compiled units (see
   opt.mli and DESIGN.md section 14).  The pass rewrites instructions
   only — registers, regions and the memory layout (arena and sparse
   tables) never change, so an optimized unit is differentially
   comparable (Vm.equal_state) with the unit it came from. *)

open Compile

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = { r_elided : int; r_fused : int; r_loopi : int }

(* ------------------------------------------------------------------ *)
(* Register read/write sets                                            *)
(* ------------------------------------------------------------------ *)

(* [Region] reports no registers here: the driver's descriptor reads
   (rg_lo/rg_hi) and body effects are accounted for explicitly by each
   pass, because they live outside the instruction stream. *)
let reads_of (i : instr) : int list =
  match i with
  | Li _ | Ldi _ | LdSi _ | Region _ | Halt -> []
  | Mov (_, s) | Addi (_, s, _) | Muli (_, s, _) | Chk (s, _, _) -> [ s ]
  | Add (_, a, b) | Sub (_, a, b) | Mul (_, a, b) | Maxr (_, a, b)
  | Minr (_, a, b) ->
    [ a; b ]
  | Muladd (_, s, _, t) -> [ s; t ]
  | Ld (_, a) | LdS (_, a) -> [ a ]
  | St (a, s) | StS (a, s) -> [ a; s ]
  | Sti (_, s) | StSi (_, s) -> [ s ]
  | LdH (_, _, key) -> Array.to_list key
  | StH (_, key, s) -> Array.to_list key @ [ s ]
  | Bgt (a, b, _) | Blt (a, b, _) -> [ a; b ]
  | LoopUp (v, _, lim, _) | LoopDown (v, _, lim, _) -> [ v; lim ]
  | LoopUpi (v, _, _, _) | LoopDowni (v, _, _, _) -> [ v ]
  | MuladdLd (_, s, _, t) -> [ s; t ]
  | MuladdSt (s, _, t, v) -> [ s; t; v ]
  | AddiLd (_, s, _) -> [ s ]
  | AddiSt (s, _, v) -> [ s; v ]
  | AddSt (a, b, c) | SubSt (a, b, c) | MulSt (a, b, c) -> [ a; b; c ]

let writes_of (i : instr) : int list =
  match i with
  | Li (d, _) | Mov (d, _) | Add (d, _, _) | Sub (d, _, _) | Mul (d, _, _)
  | Maxr (d, _, _) | Minr (d, _, _) | Addi (d, _, _) | Muli (d, _, _)
  | Muladd (d, _, _, _) | Ld (d, _) | Ldi (d, _) | LdS (d, _) | LdSi (d, _)
  | MuladdLd (d, _, _, _) | AddiLd (d, _, _) | LdH (d, _, _) ->
    [ d ]
  | LoopUp (v, _, _, _) | LoopDown (v, _, _, _) | LoopUpi (v, _, _, _)
  | LoopDowni (v, _, _, _) ->
    [ v ]
  | St _ | Sti _ | StS _ | StSi _ | MuladdSt _ | AddiSt _ | AddSt _ | SubSt _
  | MulSt _ | Chk _ | StH _ | Bgt _ | Blt _ | Region _ | Halt ->
    []

(* ------------------------------------------------------------------ *)
(* Region read/write attribution                                       *)
(* ------------------------------------------------------------------ *)

type rw = { rw_reads : int -> int list; rw_writes : int -> int list }
(* reads/writes attributed to a [Region rid] instruction: descriptor
   registers plus everything its bodies touch (the serial body shares
   the register file with main code). *)

let region_rw (u : unit_) : rw =
  let nr = Array.length u.u_regions in
  let reads = Array.make (max nr 1) [] and writes = Array.make (max nr 1) [] in
  Array.iteri
    (fun i (r : region) ->
      let rd = ref [ r.rg_lo; r.rg_hi ] and wr = ref [ r.rg_vreg ] in
      let body code =
        Array.iter
          (fun ins ->
            rd := reads_of ins @ !rd;
            wr := writes_of ins @ !wr)
          code
      in
      body r.rg_serial;
      body r.rg_par;
      reads.(i) <- !rd;
      writes.(i) <- !wr)
    u.u_regions;
  {
    rw_reads = (fun rid -> reads.(rid));
    rw_writes = (fun rid -> writes.(rid));
  }

(* ------------------------------------------------------------------ *)
(* Superinstruction fusion                                             *)
(* ------------------------------------------------------------------ *)

exception Escape

(* Can any read observe the value the producer wrote to [d], walking
   all paths from [start]?  A write of [d] kills the value on that
   path; forward branches and loop back-edges fan the walk out.  A
   back edge always passes the producer (which rewrites [d]) before
   reaching the consumer again, so the walk terminates soundly on the
   visited set. *)
let value_escapes ~rw code start d =
  let n = Array.length code in
  let visited = Array.make (n + 1) false in
  let rec visit p =
    if p < n && not visited.(p) then begin
      visited.(p) <- true;
      let ins = code.(p) in
      let reads =
        match ins with Region rid -> rw.rw_reads rid | i -> reads_of i
      in
      if List.mem d reads then raise Escape;
      let writes =
        match ins with Region rid -> rw.rw_writes rid | i -> writes_of i
      in
      if not (List.mem d writes || ins = Halt) then begin
        Option.iter visit (branch_target ins);
        visit (p + 1)
      end
    end
  in
  try
    visit start;
    false
  with Escape -> true

(* One left-to-right fusion pass over a code body.  [ok_intermediate]
   refuses registers that outlive the body (region descriptors, or
   registers read by other code bodies). *)
let fuse_pass ~rw ~ok_intermediate code =
  let n = Array.length code in
  let target = Array.make (n + 1) false in
  Array.iter
    (fun i ->
      match branch_target i with Some t -> target.(t) <- true | None -> ())
    code;
  let pair pc =
    if pc + 1 >= n || target.(pc + 1) then None
    else
      let fuse d ~kills mk =
        if
          ok_intermediate d
          && (kills || not (value_escapes ~rw code (pc + 2) d))
        then Some (mk ())
        else None
      in
      match (code.(pc), code.(pc + 1)) with
      | Muladd (d, s, k, t), Ld (x, a) when a = d ->
        fuse d ~kills:(x = d) (fun () -> MuladdLd (x, s, k, t))
      | Muladd (d, s, k, t), St (a, v) when a = d && v <> d ->
        fuse d ~kills:false (fun () -> MuladdSt (s, k, t, v))
      | Addi (d, s, k), Ld (x, a) when a = d ->
        fuse d ~kills:(x = d) (fun () -> AddiLd (x, s, k))
      | Addi (d, s, k), St (a, v) when a = d && v <> d ->
        fuse d ~kills:false (fun () -> AddiSt (s, k, v))
      | Add (d, a, b), St (ra, v) when v = d && ra <> d ->
        fuse d ~kills:false (fun () -> AddSt (ra, a, b))
      | Sub (d, a, b), St (ra, v) when v = d && ra <> d ->
        fuse d ~kills:false (fun () -> SubSt (ra, a, b))
      | Mul (d, a, b), St (ra, v) when v = d && ra <> d ->
        fuse d ~kills:false (fun () -> MulSt (ra, a, b))
      | Mov (d, s), Ld (x, a) when a = d ->
        fuse d ~kills:(x = d) (fun () -> Ld (x, s))
      | _ -> None
  in
  let map = Array.make (n + 1) 0 in
  let out = ref [] and len = ref 0 in
  let push i =
    out := i :: !out;
    incr len
  in
  let pc = ref 0 in
  while !pc < n do
    map.(!pc) <- !len;
    match pair !pc with
    | Some fused ->
      map.(!pc + 1) <- !len;
      push fused;
      pc := !pc + 2
    | None ->
      push code.(!pc);
      incr pc
  done;
  map.(n) <- !len;
  let arr = Array.of_list (List.rev !out) in
  Array.map (remap_target map) arr

let fuse_unit (u : unit_) =
  let rw = region_rw u in
  let protected = Hashtbl.create 8 in
  Array.iter
    (fun (r : region) ->
      Hashtbl.replace protected r.rg_vreg ();
      Hashtbl.replace protected r.rg_lo ();
      Hashtbl.replace protected r.rg_hi ())
    u.u_regions;
  let nr = Array.length u.u_regions in
  let codes = Array.make (1 + (2 * nr)) [||] in
  codes.(0) <- u.u_main;
  Array.iteri
    (fun i (r : region) ->
      codes.(1 + (2 * i)) <- r.rg_serial;
      codes.(2 + (2 * i)) <- r.rg_par)
    u.u_regions;
  let eliminated = ref 0 in
  (* Iterate to a fixpoint: a fused instruction can become adjacent to a
     new producer.  Each round strictly shrinks some body, so this is
     bounded. *)
  let changed = ref true in
  while !changed do
    changed := false;
    (* registers each body reads (a Region instruction reads only its
       descriptor registers here — body reads live in their own rows) *)
    let rsets =
      Array.map
        (fun code ->
          let h = Hashtbl.create 16 in
          Array.iter
            (fun ins ->
              let rs =
                match ins with
                | Region rid ->
                  let r = u.u_regions.(rid) in
                  [ r.rg_lo; r.rg_hi ]
                | i -> reads_of i
              in
              List.iter (fun x -> Hashtbl.replace h x ()) rs)
            code;
          h)
        codes
    in
    Array.iteri
      (fun k code ->
        let ok_intermediate d =
          (not (Hashtbl.mem protected d))
          &&
          let elsewhere = ref false in
          Array.iteri
            (fun j h -> if j <> k && Hashtbl.mem h d then elsewhere := true)
            rsets;
          not !elsewhere
        in
        let code' = fuse_pass ~rw ~ok_intermediate code in
        if Array.length code' < Array.length code then begin
          eliminated := !eliminated + (Array.length code - Array.length code');
          codes.(k) <- code';
          changed := true
        end)
      codes
  done;
  (* Loop back-edges whose limit register has a unique [Li] definition
     (dominating the top, since the only entry to a top is linear fall-
     through past it) take the immediate form. *)
  let loopi = ref 0 in
  let wcount = Hashtbl.create 16 in
  let bump r =
    Hashtbl.replace wcount r
      (1 + Option.value ~default:0 (Hashtbl.find_opt wcount r))
  in
  Array.iter
    (fun code -> Array.iter (fun ins -> List.iter bump (writes_of ins)) code)
    codes;
  Array.iter (fun (r : region) -> bump r.rg_vreg) u.u_regions;
  Array.iteri
    (fun k code ->
      let imm_limit lim top =
        if Hashtbl.find_opt wcount lim = Some 1 then begin
          let found = ref None in
          for j = 0 to top - 1 do
            match code.(j) with
            | Li (r, v) when r = lim -> found := Some v
            | _ -> ()
          done;
          !found
        end
        else None
      in
      codes.(k) <-
        Array.map
          (fun ins ->
            match ins with
            | LoopUp (v, stp, lim, top) -> (
              match imm_limit lim top with
              | Some c ->
                incr loopi;
                LoopUpi (v, stp, c, top)
              | None -> ins)
            | LoopDown (v, stp, lim, top) -> (
              match imm_limit lim top with
              | Some c ->
                incr loopi;
                LoopDowni (v, stp, c, top)
              | None -> ins)
            | _ -> ins)
          code)
    codes;
  let regions' =
    Array.mapi
      (fun i (r : region) ->
        { r with rg_serial = codes.(1 + (2 * i)); rg_par = codes.(2 + (2 * i)) })
      u.u_regions
  in
  ({ u with u_main = codes.(0); u_regions = regions' }, !eliminated, !loopi)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let all_on () = ()

let optimize (u : unit_) =
  let u, fused, loopi = fuse_unit u in
  (* keep the inline-threshold work proxy in sync with rewritten bodies *)
  let regions =
    Array.map
      (fun (r : region) -> { r with rg_cost = Array.length r.rg_serial })
      u.u_regions
  in
  ( { u with u_regions = regions },
    { r_elided = 0; r_fused = fused; r_loopi = loopi } )

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let opcode_name (i : instr) =
  let s = instr_string i in
  match String.index_opt s ' ' with
  | Some j -> String.sub s 0 j
  | None -> s

let static_counts (u : unit_) =
  let h = Hashtbl.create 32 in
  let tally code =
    Array.iter
      (fun i ->
        let k = opcode_name i in
        Hashtbl.replace h k
          (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
      code
  in
  tally u.u_main;
  Array.iter
    (fun (r : region) ->
      tally r.rg_serial;
      tally r.rg_par)
    u.u_regions;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
  |> List.sort (fun (k1, v1) (k2, v2) ->
         if v1 <> v2 then compare v2 v1 else compare k1 k2)
