(* Dependence-licensed fusion and write-kill deletion.
   See restructure.mli for the legality arguments. *)

type report = { x_fused : int; x_interchanged : int; x_killed : int }

let empty_report = { x_fused = 0; x_interchanged = 0; x_killed = 0 }

(* ------------------------------------------------------------------ *)
(* AST helpers                                                         *)
(* ------------------------------------------------------------------ *)

let rec labels_of_stmt acc (s : Ast.stmt) =
  match s with
  | Ast.Assign { label; _ } -> (
    match label with Some l -> l :: acc | None -> acc)
  | Ast.For { body; _ } -> List.fold_left labels_of_stmt acc body

let labels_of_stmts stmts = List.rev (List.fold_left labels_of_stmt [] stmts)

let rec expr_mentions v (e : Ast.expr) =
  match e with
  | Ast.Int _ -> false
  | Ast.Name s -> s = v
  | Ast.Neg a -> expr_mentions v a
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) | Ast.Max (a, b)
  | Ast.Min (a, b) ->
    expr_mentions v a || expr_mentions v b
  | Ast.Ref (_, subs) -> List.exists (expr_mentions v) subs

(* [v] is mentioned (or re-bound, which we also refuse) in a statement *)
let rec stmt_mentions v (s : Ast.stmt) =
  match s with
  | Ast.Assign { lhs = _, subs; rhs; _ } ->
    List.exists (expr_mentions v) subs || expr_mentions v rhs
  | Ast.For { var; lo; hi; body; _ } ->
    var = v || expr_mentions v lo || expr_mentions v hi
    || List.exists (stmt_mentions v) body

let rec rename_expr v v' (e : Ast.expr) =
  match e with
  | Ast.Int _ -> e
  | Ast.Name s -> if s = v then Ast.Name v' else e
  | Ast.Neg a -> Ast.Neg (rename_expr v v' a)
  | Ast.Add (a, b) -> Ast.Add (rename_expr v v' a, rename_expr v v' b)
  | Ast.Sub (a, b) -> Ast.Sub (rename_expr v v' a, rename_expr v v' b)
  | Ast.Mul (a, b) -> Ast.Mul (rename_expr v v' a, rename_expr v v' b)
  | Ast.Max (a, b) -> Ast.Max (rename_expr v v' a, rename_expr v v' b)
  | Ast.Min (a, b) -> Ast.Min (rename_expr v v' a, rename_expr v v' b)
  | Ast.Ref (a, subs) -> Ast.Ref (a, List.map (rename_expr v v') subs)

let rec rename_stmt v v' (s : Ast.stmt) =
  match s with
  | Ast.Assign a ->
    let arr, subs = a.lhs in
    Ast.Assign
      {
        a with
        lhs = (arr, List.map (rename_expr v v') subs);
        rhs = rename_expr v v' a.rhs;
      }
  | Ast.For f ->
    (* candidate bodies that re-bind [v] are refused before renaming *)
    Ast.For
      {
        f with
        lo = rename_expr v v' f.lo;
        hi = rename_expr v v' f.hi;
        body = List.map (rename_stmt v v') f.body;
      }

let prelabel (p : Ast.program) =
  let used = Hashtbl.create 16 in
  let rec collect (s : Ast.stmt) =
    match s with
    | Ast.Assign { label = Some l; _ } -> Hashtbl.replace used l ()
    | Ast.Assign _ -> ()
    | Ast.For { body; _ } -> List.iter collect body
  in
  List.iter collect p.Ast.stmts;
  let ctr = ref 0 in
  let fresh () =
    let rec next () =
      incr ctr;
      let l = Printf.sprintf "s%d" !ctr in
      if Hashtbl.mem used l then next () else (Hashtbl.replace used l (); l)
    in
    next ()
  in
  let rec fill (s : Ast.stmt) =
    match s with
    | Ast.Assign ({ label = None; _ } as a) ->
      Ast.Assign { a with label = Some (fresh ()) }
    | Ast.Assign _ -> s
    | Ast.For f -> Ast.For { f with body = List.map fill f.body }
  in
  { p with Ast.stmts = List.map fill p.Ast.stmts }

let try_graph (p : Ast.program) : Graph.t option =
  match Graph.build (Sema.analyze p) with
  | g -> Some g
  | exception _ -> None

(* [g], when given, is the graph of [p] already built. *)
let graph_of ?g p = match g with Some _ -> g | None -> try_graph p

(* ------------------------------------------------------------------ *)
(* Fusion                                                              *)
(* ------------------------------------------------------------------ *)

let fusable (f1 : Ast.stmt) (f2 : Ast.stmt) =
  match (f1, f2) with
  | Ast.For a, Ast.For b -> a.step = b.step && a.lo = b.lo && a.hi = b.hi
  | _ -> false

(* Build the fused loop, or None when renaming is unsafe. *)
let mk_fused (f1 : Ast.stmt) (f2 : Ast.stmt) =
  match (f1, f2) with
  | Ast.For a, Ast.For b ->
    let rebinds var body =
      let rec binds (s : Ast.stmt) =
        match s with
        | Ast.Assign _ -> false
        | Ast.For f -> f.var = var || List.exists binds f.body
      in
      List.exists binds body
    in
    if rebinds a.var a.body || rebinds b.var b.body then None
    else if a.var = b.var then
      Some (Ast.For { a with body = a.body @ b.body })
    else if
      List.exists (stmt_mentions a.var) b.body
      (* a.var free in the second body would be captured *)
    then None
    else
      let body2 = List.map (rename_stmt b.var a.var) b.body in
      Some (Ast.For { a with body = a.body @ body2 })
  | _ -> None

(* Find the first non-refused fusable adjacent pair, returning the
   rewritten program plus the two bodies' labels (for the legality
   check) and a stable key naming the site. *)
let find_fusion ~refused (p : Ast.program) =
  let found = ref None in
  let rec scan stmts =
    match stmts with
    | (Ast.For a as s1) :: (Ast.For b as s2) :: rest
      when !found = None && fusable s1 s2 ->
      let key =
        "fuse:"
        ^ String.concat "," (labels_of_stmts [ s1 ])
        ^ "|"
        ^ String.concat "," (labels_of_stmts [ s2 ])
      in
      if Hashtbl.mem refused key then s1 :: scan (s2 :: rest)
      else begin
        match mk_fused s1 s2 with
        | Some fused ->
          found :=
            Some (key, labels_of_stmts a.body, labels_of_stmts b.body);
          fused :: rest
        | None ->
          Hashtbl.replace refused key ();
          s1 :: scan (s2 :: rest)
      end
    | Ast.For f :: rest when !found = None ->
      let body' = scan f.body in
      let s' = Ast.For { f with body = body' } in
      if !found <> None then s' :: rest else s' :: scan rest
    | s :: rest -> s :: scan rest
    | [] -> []
  in
  let stmts' = scan p.Ast.stmts in
  match !found with
  | None -> None
  | Some (key, ls1, ls2) -> Some ({ p with Ast.stmts = stmts' }, key, ls1, ls2)

(* Legal iff the trial program has no dependence (any kind, live or
   dead) from a second-body access to a first-body access: in the
   original program every first-body instance ran before every
   second-body instance, so such a dependence is an order reversal.
   Only the pairs that cross the two bodies are asked - flow
   (write -> read), anti (read -> write), output (write -> write) -
   which is exactly whether the trial program's graph would have an
   edge from [ls2] to [ls1].  A failed analysis refuses. *)
let fusion_legal (p : Ast.program) ~ls1 ~ls2 =
  let reversed () =
    let ir = Sema.analyze p in
    let ctx = Depend.Depctx.create ir in
    let side ls accs =
      List.filter (fun (a : Ir.access) -> List.mem a.Ir.label ls) accs
    in
    let w1 = side ls1 (Ir.writes ir) and r1 = side ls1 (Ir.reads ir) in
    let w2 = side ls2 (Ir.writes ir) and r2 = side ls2 (Ir.reads ir) in
    let crosses kind srcs dsts =
      List.exists
        (fun (a : Ir.access) ->
          List.exists
            (fun (b : Ir.access) ->
              a.Ir.array = b.Ir.array
              && Depend.Deps.compute ctx ~src:a ~dst:b ~kind <> None)
            dsts)
        srcs
    in
    crosses Depend.Deps.Flow w2 r1
    || crosses Depend.Deps.Anti r2 w1
    || crosses Depend.Deps.Output w2 w1
  in
  match reversed () with r -> not r | exception _ -> false

let fusion_pass p =
  let refused = Hashtbl.create 8 in
  let fused = ref 0 in
  let rec go p =
    match find_fusion ~refused p with
    | None -> p
    | Some (p_trial, key, ls1, ls2) ->
      if fusion_legal p_trial ~ls1 ~ls2 then begin
        incr fused;
        go p_trial
      end
      else begin
        Hashtbl.replace refused key ();
        go p
      end
  in
  let p = go p in
  (p, !fused)

(* ------------------------------------------------------------------ *)
(* Write-kill deletion                                                 *)
(* ------------------------------------------------------------------ *)

let rec delete_labeled l stmts =
  match stmts with
  | [] -> []
  | Ast.Assign { label = Some l'; _ } :: rest when l' = l -> rest
  | Ast.For f :: rest ->
    let body' = delete_labeled l f.body in
    (* dropping a now-empty loop is sound: it had no other effect *)
    if body' = [] then delete_labeled l rest
    else Ast.For { f with body = body' } :: delete_labeled l rest
  | s :: rest -> s :: delete_labeled l rest

(* One deletion: a write none of whose values are observed (all flow
   edges out are dead) and which a later write terminates (section 4.3:
   every cell it writes is overwritten afterwards).  The termination
   query ranges over the levels of the output edge between the two
   writes; without one it proves only for a write that never runs. *)
let find_kill (g : Graph.t) =
  let ctx = Depend.Depctx.create g.Graph.prog in
  let writes = Ir.writes g.Graph.prog in
  let deletable (w : Ir.access) =
    let flows_live =
      List.exists
        (fun (e : Graph.edge) ->
          e.e_kind = Depend.Deps.Flow
          && e.e_src.Ir.acc_id = w.Ir.acc_id
          && Graph.live e)
        g.edges
    in
    (not flows_live)
    && List.exists
         (fun (w' : Ir.access) ->
           w'.Ir.stmt_id <> w.Ir.stmt_id
           &&
           let levels =
             match
               List.find_opt
                 (fun (e : Graph.edge) ->
                   e.e_kind = Depend.Deps.Output
                   && e.e_src.Ir.acc_id = w.Ir.acc_id
                   && e.e_dst.Ir.acc_id = w'.Ir.acc_id)
                 g.edges
             with
             | Some e -> e.e_std_levels
             | None -> []
           in
           (match Depend.Analyses.terminates ctx ~src:w ~dst:w' ~levels with
              | r -> r
              | exception _ -> false))
         writes
  in
  List.find_map
    (fun (w : Ir.access) -> if deletable w then Some w.Ir.label else None)
    writes

let writekill_pass ?g p =
  let killed = ref 0 in
  let rec go p g rounds =
    if rounds = 0 then p
    else
      match Option.bind (graph_of ?g p) find_kill with
      | None -> p
      | Some label ->
        incr killed;
        go
          { p with Ast.stmts = delete_labeled label p.Ast.stmts }
          None (rounds - 1)
  in
  let p = go p g 8 in
  (p, !killed)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* One graph per distinct program: the guard graph is write-kill's
   first round unless fusion changed the program. *)
let optimize (p : Ast.program) =
  let p = prelabel p in
  match try_graph p with
  | None -> (p, empty_report)
  | Some g ->
    let p, fused = fusion_pass p in
    let g = if fused = 0 then Some g else None in
    let p, killed = writekill_pass ?g p in
    (p, { x_fused = fused; x_interchanged = 0; x_killed = killed })
