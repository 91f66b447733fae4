(* Direction / distance vectors (section 2.1).

   A vector has one entry per loop common to the two accesses.  Each entry
   summarizes the possible signs of the dependence distance in that loop,
   refined with an exact distance or a finite range when the constraints
   pin one down.  Sets of vectors are "partially compressed": signs at a
   level are merged only when the analyses of the deeper levels agree, so
   {(+,+),(0,0)} is NOT merged into the lossy (0+,0+) (the paper's
   example). *)

open Omega

type sign = Neg | Zero | Pos | NonNeg | NonPos | Any

type entry = {
  sign : sign;
  lo : int option; (* distance bounds when known and finite *)
  hi : int option;
}

type t = entry list

let exact n =
  {
    sign = (if n > 0 then Pos else if n < 0 then Neg else Zero);
    lo = Some n;
    hi = Some n;
  }

let entry_to_string e =
  match e.lo, e.hi with
  | Some a, Some b when a = b -> string_of_int a
  | Some a, Some b -> Printf.sprintf "%d:%d" a b
  | _ -> (
    match e.sign with
    | Neg -> "-"
    | Zero -> "0"
    | Pos -> "+"
    | NonNeg -> "0+"
    | NonPos -> "0-"
    | Any -> "*")

let to_string (v : t) =
  "(" ^ String.concat "," (List.map entry_to_string v) ^ ")"

let compare_entry (a : entry) (b : entry) = compare a b
let compare (a : t) (b : t) = List.compare compare_entry a b
let equal a b = compare a b = 0

(* Is the distance 0 possible according to this entry? *)
let entry_allows_zero e =
  match e.sign with
  | Zero | NonNeg | NonPos | Any -> true
  | Pos | Neg -> false

let allows_all_zero (v : t) = List.for_all entry_allows_zero v

(* A vector is loop-independent when every entry is exactly zero. *)
let is_loop_independent (v : t) =
  List.for_all (fun e -> e.lo = Some 0 && e.hi = Some 0) v

(* ------------------------------------------------------------------ *)
(* Computing the vectors of a dependence problem                       *)
(* ------------------------------------------------------------------ *)

(* Sign constraint on a variable. *)
let sign_constr v (s : sign) : Constr.t list =
  let e = Linexpr.var v in
  match s with
  | Neg -> [ Constr.lt e (Linexpr.of_int 0) ]
  | Zero -> [ Constr.eq e ]
  | Pos -> [ Constr.gt e (Linexpr.of_int 0) ]
  | NonNeg -> [ Constr.ge e (Linexpr.of_int 0) ]
  | NonPos -> [ Constr.le e (Linexpr.of_int 0) ]
  | Any -> []

let range_of problem v =
  match Omega.bounds problem v with
  | `Unsat -> None
  | `Range (lo, hi) ->
    Some (Option.map Zint.to_int lo, Option.map Zint.to_int hi)

(* Can [v] take a value of sign [s], given its attained range [lo, hi]
   over [problem]?  The ends are values [v] takes, so a negative [lo] (or
   none) shows a negative value, a positive [hi] a positive one, and an
   end at 0 shows 0; only a 0 strictly inside the range needs a
   satisfiability test, since congruences can leave holes. *)
let sign_feasible problem v (lo, hi) s =
  let below_zero = match lo with None -> true | Some a -> a < 0 in
  let above_zero = match hi with None -> true | Some b -> b > 0 in
  match s with
  | Neg -> below_zero
  | Pos -> above_zero
  | _ ->
    lo = Some 0 || hi = Some 0
    || below_zero && above_zero
       && Elim.satisfiable (Problem.add_list (sign_constr v s) problem)

(* Analyze levels [d..] of [problem] over the distance variables [dvars];
   returns the list of vector tails. *)
let rec analyze problem (dvars : Var.t array) d : t list =
  if d >= Array.length dvars then [ [] ]
  else begin
    let v = dvars.(d) in
    match range_of problem v with
    | None -> [] (* no integer point: dead level *)
    | Some (Some a, Some b) when a = b ->
      List.map (fun tail -> exact a :: tail) (analyze problem dvars (d + 1))
    | Some range ->
      let branches =
        List.filter_map
          (fun s ->
            if sign_feasible problem v range s then
              Some (s, Problem.add_list (sign_constr v s) problem)
            else None)
          [ Neg; Zero; Pos ]
      in
      (match branches with
       | [] -> [] (* no satisfiable sign: dead level *)
       | _ ->
         let analyzed =
           List.map (fun (s, p) -> (s, analyze p dvars (d + 1))) branches
         in
         (* merge signs whose deeper analyses agree *)
         let tails_equal t1 t2 = List.compare compare t1 t2 = 0 in
         let merged_sign signs =
           match List.sort Stdlib.compare signs with
           | [ s ] -> s
           | [ Neg; Zero ] -> NonPos
           | [ Zero; Pos ] -> NonNeg
           | [ Neg; Zero; Pos ] -> Any
           | _ -> Any (* [Neg; Pos]: no precise symbol; overapproximate *)
         in
         let rec group = function
           | [] -> []
           | (s, tails) :: rest ->
             let same, diff =
               List.partition (fun (_, t') -> tails_equal tails t') rest
             in
             (List.map fst ((s, tails) :: same), tails) :: group diff
         in
         List.concat_map
           (fun (signs, tails) ->
             let s = merged_sign signs in
             (* distance bounds for the merged sign *)
             let p = Problem.add_list (sign_constr v s) problem in
             match range_of p v with
             | None -> []
             | Some (lo, hi) ->
               let entry = { sign = s; lo; hi } in
               List.map (fun tail -> entry :: tail) tails)
           (group analyzed))
  end

(* All vectors of [problem] (over distance variables), with a forced prefix
   of exact zeros for the first [zeros] levels and a strictly positive
   level after (as produced by the per-level ordering).  [carried = 0]
   means loop-independent: all entries zero. *)
(* The weakest vector set of one ordering level, used when the exact
   analysis gives up: the level's forced shape (zero prefix, positive
   carried level) with every deeper level unconstrained.  A superset of
   anything [vectors_of_level] can return, so decisions made from it are
   conservative. *)
let conservative_of_level count ~carried : t list =
  if carried = 0 then [ List.init count (fun _ -> exact 0) ]
  else
    [
      List.init count (fun l ->
          if l < carried - 1 then exact 0
          else if l = carried - 1 then { sign = Pos; lo = Some 1; hi = None }
          else { sign = Any; lo = None; hi = None });
    ]

let vectors_of_level problem (dvars : Var.t array) ~carried : t list =
  let c = Array.length dvars in
  if carried = 0 then begin
    if Elim.satisfiable problem then [ List.init c (fun _ -> exact 0) ] else []
  end
  else begin
    (* levels 1..carried-1 are zero, level carried is >= 1 *)
    let prefix = List.init (carried - 1) (fun _ -> exact 0) in
    let v = dvars.(carried - 1) in
    if not (Elim.satisfiable problem) then []
    else begin
      (* Ask every later question of the level's exact projection onto
         the distance variables (section 3) when it is one piece: a small
         problem over d1..dc and inert wildcards instead of both
         instances' loop variables, the symbolic constants and the
         subscripts.  The sign constraints added later mention only kept
         variables, so the answers stay exact.  A projection that
         splinters would multiply every query by its piece count, so the
         level problem is then kept whole.  The satisfiability test
         comes first because refuting an empty level by a projection
         that must keep d1..dc can cost many times its fuel. *)
      let keep u = Array.exists (Var.equal u) dvars in
      let problem =
        match Elim.project ~keep problem with
        | [ piece ] -> piece
        | _ -> problem
      in
      match range_of problem v with
      | None -> []
      | Some range ->
        let entry =
          match range with
          | Some a, Some b when a = b -> exact a
          | lo, hi -> { sign = Pos; lo; hi }
        in
        let tails = analyze problem dvars carried in
        List.map (fun tail -> prefix @ (entry :: tail)) tails
    end
  end
