(* Canonical, allocation-independent serialization of solver queries.

   Variables are renumbered by first occurrence in a fixed traversal
   order (hypotheses, then LHS problems, then the existentials, then RHS
   problems) and tagged with their kind, so two alpha-equivalent queries
   built in the same allocation order — on any domain, from any id slot
   — serialize identically.  This is the key of the verdict memo
   ([Analyses.Memo], which is what lets domains share verdicts) and,
   prefixed with the query label, the fault-injection key that makes the
   injected-fault stream a pure function of query content. *)

open Omega

(* Coefficients and canonical ids are written as decimal digits
   straight into the buffer: the key is built on every memo lookup, and
   a [string_of_int] per term would allocate and dominate its cost. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* Canonical ids by variable id; ids are distinct ints already, so
   they hash to themselves. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

(* Kill-query keys run to several kilobytes, past the minor heap's
   object size limit, so a fresh buffer grown to that size leaves
   major-heap garbage on every lookup: most of a warm request's major
   allocation, and with it the daemon's peak memory.  One scratch
   buffer is reused instead; a caller that finds it taken (another
   thread or domain mid-key) serializes into a fresh one. *)
let scratch = Buffer.create 4096
let scratch_lock = Mutex.create ()

let with_buffer f =
  if Mutex.try_lock scratch_lock then begin
    Buffer.clear scratch;
    match f scratch with
    | s ->
      Mutex.unlock scratch_lock;
      s
    | exception e ->
      Mutex.unlock scratch_lock;
      raise e
  end
  else f (Buffer.create 256)

let key ?tag ~(hyp : Constr.t list) (lhs : Problem.t list)
    ~(evars : Var.t list) (rhs : Problem.t list) : string =
  with_buffer @@ fun buf ->
  (match tag with
  | Some t ->
    Buffer.add_string buf t;
    Buffer.add_char buf ':'
  | None -> ());
  let canon = Ids.create 16 in
  let cid v =
    let id = Var.id v in
    match Ids.find_opt canon id with
    | Some c -> c
    | None ->
      let c = Ids.length canon in
      Ids.add canon id c;
      c
  in
  let kind_char v =
    match Var.kind v with Var.Input -> 'i' | Var.Sym -> 's' | Var.Wild -> 'w'
  in
  let add_lin le =
    Linexpr.iter_terms
      (fun v c ->
        add_int buf (Zint.to_int c);
        Buffer.add_char buf '*';
        Buffer.add_char buf (kind_char v);
        add_int buf (cid v);
        Buffer.add_char buf '+')
      le;
    add_int buf (Zint.to_int (Linexpr.constant le))
  in
  let add_constr c =
    Buffer.add_char buf
      (match Constr.kind c with Constr.Eq -> 'E' | Constr.Geq -> 'G');
    add_lin (Constr.expr c);
    Buffer.add_char buf ';'
  in
  let add_problem p =
    Buffer.add_char buf '[';
    List.iter add_constr (Problem.constraints p);
    Buffer.add_char buf ']'
  in
  List.iter add_constr hyp;
  Buffer.add_char buf '|';
  List.iter add_problem lhs;
  Buffer.add_char buf '|';
  List.iter
    (fun v ->
      add_int buf (cid v);
      Buffer.add_char buf ',')
    evars;
  Buffer.add_char buf '|';
  List.iter add_problem rhs;
  Buffer.contents buf

(* Key of a bare problem list (fault keys for queries that are not
   implications, e.g. per-level dependence-vector extraction). *)
let of_problems ?tag (ps : Problem.t list) : string =
  key ?tag ~hyp:[] ps ~evars:[] []
