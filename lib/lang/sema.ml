(* Semantic analysis: surface AST -> IR.

   - resolves names to loop variables (by nest position) or declared
     symbolic constants;
   - extracts affine forms of subscripts and loop bounds, demoting
     non-affine subexpressions (products of variables, index-array reads)
     to opaque terms;
   - flattens every array access into the program-wide access table,
     checking that each array is used at one rank;
   - records assume-conditions over symbolic constants. *)

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type env = {
  symbolics : string list;
  (* innermost LAST; each loop variable maps to its value as an affine
     form over the normalized counters (identity for step-1 loops,
     [lo + step*counter] otherwise) *)
  loop_vars : (string * Ir.affine) list;
  scalars : string list; (* declared zero-dimensional arrays *)
  opaques : Ir.opaque list ref;
  next_opaque : int ref;
}

let lookup_var env name =
  match List.assoc_opt name env.loop_vars with
  | Some aff -> Some aff
  | None ->
    if List.mem name env.symbolics then Some (Ir.aff_var (Ir.Symc name))
    else None

let fresh_opaque env (repr : Ast.expr) ~base ~args : Ir.affine =
  let id = !(env.next_opaque) in
  incr env.next_opaque;
  env.opaques := { Ir.opq_id = id; repr; base; args } :: !(env.opaques);
  Ir.aff_var (Ir.Opq id)

(* Affine extraction.  [allow_minmax] is [`No] inside subscripts, [`Max]
   in lower bounds, [`Min] in upper bounds (returning the list of arms). *)
let rec to_affine env (e : Ast.expr) : Ir.affine =
  match e with
  | Ast.Int n -> Ir.aff_const n
  | Ast.Name name -> (
    match lookup_var env name with
    | Some aff -> aff
    | None ->
      if List.mem name env.scalars then
        (* a scalar read in affine position: an opaque term *)
        fresh_opaque env (Ast.Ref (name, [])) ~base:(Some name) ~args:[]
      else error "undeclared name %s (declare it as symbolic)" name)
  | Ast.Neg e -> Ir.aff_neg (to_affine env e)
  | Ast.Add (a, b) -> Ir.aff_add (to_affine env a) (to_affine env b)
  | Ast.Sub (a, b) -> Ir.aff_sub (to_affine env a) (to_affine env b)
  | Ast.Mul (a, b) -> (
    let fa = to_affine env a and fb = to_affine env b in
    if Ir.aff_is_const fa then Ir.aff_scale fa.Ir.const fb
    else if Ir.aff_is_const fb then Ir.aff_scale fb.Ir.const fa
    else
      (* non-linear term: opaque (section 5 treats i*j as an "array"
         indexed by its variables) *)
      fresh_opaque env e ~base:None ~args:[ fa; fb ])
  | Ast.Max _ | Ast.Min _ ->
    error "max/min are only allowed at the top of loop bounds"
  | Ast.Ref (name, subs) ->
    (* an array read in subscript/bound position: opaque term *)
    let args = List.map (to_affine env) subs in
    fresh_opaque env e ~base:(Some name) ~args

(* Bound decomposition.  A lower bound [v >= e] is equivalent to one
   constraint per arm of the max-decomposition of [e]; max distributes
   through +, through - on the left (turning into the min-decomposition on
   the right), and through scaling by non-negative literals.  Upper bounds
   are dual. *)
let cross f xs ys =
  List.concat_map (fun x -> List.map (fun y -> f x y) ys) xs

let rec lo_arms env (e : Ast.expr) : Ir.bound =
  match e with
  | Ast.Max (a, b) -> lo_arms env a @ lo_arms env b
  | Ast.Add (a, b) -> cross Ir.aff_add (lo_arms env a) (lo_arms env b)
  | Ast.Sub (a, b) ->
    cross Ir.aff_add (lo_arms env a) (List.map Ir.aff_neg (hi_arms env b))
  | Ast.Neg a -> List.map Ir.aff_neg (hi_arms env a)
  | Ast.Mul (Ast.Int k, a) | Ast.Mul (a, Ast.Int k) ->
    if k >= 0 then List.map (Ir.aff_scale k) (lo_arms env a)
    else List.map (Ir.aff_scale k) (hi_arms env a)
  | Ast.Min _ ->
    error "min cannot appear in a lower bound (it would be a disjunction)"
  | Ast.Int _ | Ast.Name _ | Ast.Mul _ | Ast.Ref _ -> [ to_affine env e ]

and hi_arms env (e : Ast.expr) : Ir.bound =
  match e with
  | Ast.Min (a, b) -> hi_arms env a @ hi_arms env b
  | Ast.Add (a, b) -> cross Ir.aff_add (hi_arms env a) (hi_arms env b)
  | Ast.Sub (a, b) ->
    cross Ir.aff_add (hi_arms env a) (List.map Ir.aff_neg (lo_arms env b))
  | Ast.Neg a -> List.map Ir.aff_neg (lo_arms env a)
  | Ast.Mul (Ast.Int k, a) | Ast.Mul (a, Ast.Int k) ->
    if k >= 0 then List.map (Ir.aff_scale k) (hi_arms env a)
    else List.map (Ir.aff_scale k) (lo_arms env a)
  | Ast.Max _ ->
    error "max cannot appear in an upper bound (it would be a disjunction)"
  | Ast.Int _ | Ast.Name _ | Ast.Mul _ | Ast.Ref _ -> [ to_affine env e ]

let to_lower = lo_arms
let to_upper = hi_arms

(* Collect every array read inside an expression, in evaluation order
   (left to right, subscripts before the enclosing read). *)
let rec collect_reads (e : Ast.expr) acc =
  match e with
  | Ast.Int _ | Ast.Name _ -> acc
  | Ast.Neg a -> collect_reads a acc
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b)
  | Ast.Max (a, b) | Ast.Min (a, b) ->
    collect_reads b (collect_reads a acc)
  | Ast.Ref (name, subs) ->
    let acc = List.fold_left (fun acc s -> collect_reads s acc) acc subs in
    (name, subs) :: acc

(* Rewrite reads of declared scalars ([Name k] where [k] is a
   zero-dimensional array) into explicit [Ref (k, [])] nodes, so read
   collection and the interpreter treat them as memory accesses. *)
let rec scalarize ~scalars ~shadowed (e : Ast.expr) : Ast.expr =
  let go e = scalarize ~scalars ~shadowed e in
  match e with
  | Ast.Int _ -> e
  | Ast.Name n ->
    if (not (List.mem n shadowed)) && List.mem n scalars then Ast.Ref (n, [])
    else e
  | Ast.Neg a -> Ast.Neg (go a)
  | Ast.Add (a, b) -> Ast.Add (go a, go b)
  | Ast.Sub (a, b) -> Ast.Sub (go a, go b)
  | Ast.Mul (a, b) -> Ast.Mul (go a, go b)
  | Ast.Max (a, b) -> Ast.Max (go a, go b)
  | Ast.Min (a, b) -> Ast.Min (go a, go b)
  | Ast.Ref (n, subs) -> Ast.Ref (n, List.map go subs)

(* Every array is used at one rank: a declared array at its declared
   rank, an undeclared one (an index array, say) at the rank of its
   first use.  Dependence testing equates subscripts position by
   position, so it needs both accesses of a pair to agree. *)
let check_ranks (ast : Ast.program) =
  let declared = Hashtbl.create 16 and seen = Hashtbl.create 16 in
  List.iter
    (function
      | Ast.Array arrs ->
        List.iter
          (fun (name, ranges) ->
            Hashtbl.replace declared name (List.length ranges))
          arrs
      | Ast.Symbolic _ | Ast.Assume _ -> ())
    ast.Ast.decls;
  let use name subs =
    let rank = List.length subs in
    match Hashtbl.find_opt declared name with
    | Some r when r <> rank ->
      error "array %s has %d subscript(s) but is declared with %d" name rank
        r
    | Some _ -> ()
    | None -> (
      match Hashtbl.find_opt seen name with
      | Some r when r <> rank ->
        error "array %s is used with both %d and %d subscript(s)" name r rank
      | Some _ -> ()
      | None -> Hashtbl.add seen name rank)
  in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Name _ -> ()
    | Ast.Neg a -> expr a
    | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b)
    | Ast.Max (a, b) | Ast.Min (a, b) ->
      expr a;
      expr b
    | Ast.Ref (name, subs) ->
      use name subs;
      List.iter expr subs
  in
  let rec stmt (s : Ast.stmt) =
    match s with
    | Ast.For { lo; hi; body; _ } ->
      expr lo;
      expr hi;
      List.iter stmt body
    | Ast.Assign { lhs = name, subs; rhs; _ } ->
      use name subs;
      List.iter expr subs;
      expr rhs
  in
  List.iter stmt ast.Ast.stmts

let analyze (ast : Ast.program) : Ir.program =
  check_ranks ast;
  let symbolics =
    List.concat_map
      (function Ast.Symbolic ns -> ns | Ast.Array _ | Ast.Assume _ -> [])
      ast.Ast.decls
  in
  let scalars =
    List.concat_map
      (function
        | Ast.Array arrs ->
          List.filter_map
            (fun (name, ranges) -> if ranges = [] then Some name else None)
            arrs
        | Ast.Symbolic _ | Ast.Assume _ -> [])
      ast.Ast.decls
  in
  let sym_env =
    {
      symbolics;
      loop_vars = [];
      scalars;
      opaques = ref [];
      next_opaque = ref 0;
    }
  in
  let arrays =
    List.concat_map
      (function
        | Ast.Array arrs ->
          List.map
            (fun (name, ranges) ->
              ( name,
                List.map
                  (fun (lo, hi) ->
                    (to_affine sym_env lo, to_affine sym_env hi))
                  ranges ))
            arrs
        | Ast.Symbolic _ | Ast.Assume _ -> [])
      ast.Ast.decls
  in
  let assumes =
    List.concat_map
      (function
        | Ast.Assume conds ->
          List.map
            (fun (c : Ast.cond) ->
              {
                Ir.sc_left = to_affine sym_env c.Ast.left;
                sc_op = c.Ast.op;
                sc_right = to_affine sym_env c.Ast.right;
              })
            conds
        | Ast.Symbolic _ | Ast.Array _ -> [])
      ast.Ast.decls
  in
  let accesses = ref [] in
  let next_acc = ref 0 in
  let next_stmt = ref 0 in
  let next_node = ref 0 in
  let add_access ~stmt_id ~label ~array ~kind ~env ~loops ~loop_nodes ~path
      ~subs_ast =
    (* each access gets its own opaque table slice: reset per statement is
       not needed since ids are global, but subscript extraction must use
       the statement's env *)
    let before = !(env.opaques) in
    let subs = List.map (to_affine env) subs_ast in
    let new_opaques =
      (* opaques created while translating these subscripts *)
      let rec take l =
        if l == before then [] else match l with [] -> [] | x :: r -> x :: take r
      in
      take !(env.opaques)
    in
    (* opaque terms in the enclosing loop bounds (index-array bounds like
       b(i) in example 9) belong to the access's constraint system too:
       the dependence domain mentions them, so Depctx must be able to
       instantiate them.  Close transitively over opaque arguments. *)
    let bound_opaques =
      let opq_ids_of (a : Ir.affine) =
        List.filter_map
          (function Ir.Opq id, _ -> Some id | _ -> None)
          a.Ir.terms
      in
      let seed =
        List.concat_map
          (fun (l : Ir.loop) -> List.concat_map opq_ids_of (l.Ir.lo @ l.Ir.hi))
          loops
      in
      let table = !(env.opaques) in
      let rec close acc frontier =
        match frontier with
        | [] -> acc
        | id :: rest when List.mem id acc -> close acc rest
        | id :: rest -> (
          match List.find_opt (fun o -> o.Ir.opq_id = id) table with
          | None -> close acc rest
          | Some o ->
            close (id :: acc) (List.concat_map opq_ids_of o.Ir.args @ rest))
      in
      let wanted = close [] seed in
      List.filter
        (fun (o : Ir.opaque) ->
          List.mem o.Ir.opq_id wanted
          && not (List.exists (fun n -> n.Ir.opq_id = o.Ir.opq_id) new_opaques))
        table
    in
    let new_opaques = new_opaques @ bound_opaques in
    let id = !next_acc in
    incr next_acc;
    let a =
      {
        Ir.acc_id = id;
        stmt_id;
        label;
        array;
        kind;
        subs;
        loops;
        loop_nodes;
        path;
        opaques = new_opaques;
      }
    in
    accesses := a :: !accesses;
    a
  in
  let rec walk_stmts env loops loop_nodes path_prefix stmts =
    List.mapi
      (fun i s -> walk_stmt env loops loop_nodes (path_prefix @ [ i ]) s)
      stmts
  and walk_stmt env loops loop_nodes path (s : Ast.stmt) : Ir.istmt =
    match s with
    | Ast.For { var; lo; hi; step; body; _ } ->
      let lo = scalarize ~scalars:env.scalars ~shadowed:(List.map fst env.loop_vars) lo in
      let hi = scalarize ~scalars:env.scalars ~shadowed:(List.map fst env.loop_vars) hi in
      let lo_b = to_lower env lo in
      let hi_b = to_upper env hi in
      let node_id = !next_node in
      incr next_node;
      let depth = List.length env.loop_vars in
      let counter = Ir.aff_var (Ir.Loop depth) in
      let value_aff =
        if step = 1 then counter
        else begin
          (* the surface variable is lo + step * counter; requires single
             bound arms so the congruence anchor is well defined *)
          match lo_b with
          | [ l ] -> Ir.aff_add l (Ir.aff_scale step counter)
          | _ -> error "loop %s: a stepped loop needs a single lower bound" var
        end
      in
      (if step <> 1 && List.length hi_b <> 1 then
         error "loop %s: a stepped loop needs a single upper bound" var);
      let env' =
        { env with loop_vars = env.loop_vars @ [ (var, value_aff) ] }
      in
      let loop = { Ir.lvar = var; lo = lo_b; hi = hi_b; step } in
      let body' =
        walk_stmts env' (loops @ [ loop ]) (loop_nodes @ [ node_id ]) path body
      in
      Ir.IFor { node_id; var; lo; hi; step; body = body' }
    | Ast.Assign { label; lhs = array, subs; rhs; _ } ->
      let shadowed = List.map fst env.loop_vars in
      let rhs = scalarize ~scalars:env.scalars ~shadowed rhs in
      let subs =
        List.map (scalarize ~scalars:env.scalars ~shadowed) subs
      in
      let stmt_id = !next_stmt in
      incr next_stmt;
      let label =
        match label with Some l -> l | None -> Printf.sprintf "s%d" stmt_id
      in
      (* reads first (evaluation order), then the write *)
      let read_refs = List.rev (collect_reads rhs []) in
      (* reads buried in the LHS subscripts too (index arrays on the left) *)
      let lhs_reads =
        List.rev
          (List.fold_left (fun acc s -> collect_reads s acc) [] subs)
      in
      let mk_read (name, rsubs) =
        add_access ~stmt_id ~label ~array:name ~kind:Ir.Read ~env ~loops
          ~loop_nodes ~path ~subs_ast:rsubs
      in
      let reads = List.map mk_read (read_refs @ lhs_reads) in
      let write =
        add_access ~stmt_id ~label ~array ~kind:Ir.Write ~env ~loops
          ~loop_nodes ~path ~subs_ast:subs
      in
      Ir.IAssign { stmt_id; label; write; reads; lhs = (array, subs); rhs }
  in
  (* thread a single opaque counter through all statements *)
  let stmts =
    walk_stmts
      {
        symbolics;
        loop_vars = [];
        scalars;
        opaques = ref [];
        next_opaque = sym_env.next_opaque;
      }
      [] [] [] ast.Ast.stmts
  in
  let accesses =
    List.rev !accesses |> Array.of_list
  in
  Array.iteri
    (fun i a -> assert (a.Ir.acc_id = i))
    accesses;
  {
    Ir.source = ast;
    symbolics;
    arrays;
    assumes;
    accesses;
    stmts;
  }

(* Affine arithmetic is checked (Ir): a subscript, bound or condition
   whose exact coefficients do not fit a native integer is a typed
   error, never a wrapped affine form. *)
let analyze ast =
  try analyze ast
  with Zint.Overflow ->
    error
      "integer overflow: an affine coefficient does not fit a native integer"

let parse_and_analyze src = analyze (Parser.parse_string src)
