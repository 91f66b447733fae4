(* Canonical, allocation-independent serialization of solver queries.

   Variables are renumbered by first occurrence in a fixed traversal
   order (hypotheses, then LHS problems, then the existentials, then RHS
   problems) and tagged with their kind, so two alpha-equivalent queries
   serialize identically on any domain, from any id slot, provided
   their variables stand in the same relative id order.  [Depctx.create]
   guarantees that order: it mints every access's i instance, then
   every j, then every k (tag-major), before any query mints its own
   distance variables and wildcards.  This is the key of the verdict memo
   ([Analyses.Memo], which is what lets domains share verdicts; a warm
   query finds it by recipe instead of building it again) and,
   prefixed with the query label, the fault-injection key that makes the
   injected-fault stream a pure function of query content. *)

open Omega

(* Coefficients and canonical ids are written as decimal digits
   straight into the buffer: a key is built for every query the memo
   has no recipe for ([Memo.keyed]) and every fault key, and a
   [string_of_int] per term would allocate and dominate its cost. *)
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

(* Canonical ids by variable id: an open-addressing table with linear
   probing, cleared in O(1) and reused across keys, so renumbering a
   key allocates nothing.  Canonical ids are handed out densely in
   first-occurrence order; [ids.(c)] is the variable id that got
   canonical id [c] and [home.(c)] the slot holding [c].  A slot is
   live exactly when the canonical id it holds is below [count] and
   points back at it, so stale slots from earlier keys need no
   clearing.  The table doubles whenever it would pass half full. *)
type ids = {
  mutable slots : int array; (* canonical id, or stale *)
  mutable ids : int array; (* canonical id -> variable id *)
  mutable home : int array; (* canonical id -> its slot *)
  mutable count : int;
  mutable bits : int; (* slots = 2^bits *)
}

(* A table of [2^bits] slots. *)
let make_ids bits =
  {
    slots = Array.make (1 lsl bits) 0;
    ids = Array.make (1 lsl (bits - 1)) 0;
    home = Array.make (1 lsl (bits - 1)) 0;
    count = 0;
    bits;
  }

(* Fibonacci hashing: the top [bits] bits of the product.  Variable ids
   are dense within a domain's slot, so the multiply spreads runs of
   consecutive ids across the table. *)
let slot_of t id = (id * 0x1E3779B97F4A7C15) lsr (63 - t.bits)

let rec probe t id h =
  let c = t.slots.(h) in
  if c < t.count && t.home.(c) = h then
    if t.ids.(c) = id then c
    else probe t id ((h + 1) land ((1 lsl t.bits) - 1))
  else begin
    (* [id] is absent and [h] is free: give it the next canonical id *)
    let c = t.count in
    t.slots.(h) <- c;
    t.ids.(c) <- id;
    t.home.(c) <- h;
    t.count <- c + 1;
    c
  end

let grow t =
  let n = t.count in
  let ids = t.ids in
  t.bits <- t.bits + 1;
  t.slots <- Array.make (1 lsl t.bits) 0;
  t.ids <- Array.make (1 lsl (t.bits - 1)) 0;
  t.home <- Array.make (1 lsl (t.bits - 1)) 0;
  t.count <- 0;
  for c = 0 to n - 1 do
    ignore (probe t ids.(c) (slot_of t ids.(c)))
  done

(* The canonical id of variable id [id], numbering it next if new. *)
let canonical t id =
  if t.count = Array.length t.ids then grow t;
  probe t id (slot_of t id)

(* Kill-query keys run to several kilobytes, past the minor heap's
   object size limit, so a fresh buffer grown to that size leaves
   major-heap garbage on every lookup: most of a warm request's major
   allocation, and with it the daemon's peak memory.  One scratch
   buffer and id table are reused instead; a caller that finds them
   taken (another thread or domain mid-key) serializes with fresh
   ones. *)
let scratch = Buffer.create 4096
let scratch_ids = make_ids 7
let scratch_lock = Mutex.create ()

let with_scratch f =
  if Mutex.try_lock scratch_lock then begin
    Buffer.clear scratch;
    scratch_ids.count <- 0;
    match f scratch scratch_ids with
    | s ->
      Mutex.unlock scratch_lock;
      s
    | exception e ->
      Mutex.unlock scratch_lock;
      raise e
  end
  else f (Buffer.create 256) (make_ids 5)

let key ?tag ~(hyp : Constr.t list) (lhs : Problem.t list)
    ~(evars : Var.t list) (rhs : Problem.t list) : string =
  with_scratch @@ fun buf canon ->
  (match tag with
  | Some t ->
    Buffer.add_string buf t;
    Buffer.add_char buf ':'
  | None -> ());
  let cid v = canonical canon (Var.id v) in
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
