(* Resource governance for the solver stack.

   Every entry into the Omega test (projection, satisfiability, the
   Presburger decision procedure) runs under a *meter* charged against
   the current limits: elimination steps draw fuel, splinter
   constructions draw their own counter, DNF enumeration draws a branch
   counter ([Or] alternatives entered per enumeration), and an optional
   wall-clock deadline bounds the whole query.  Exhausting any
   limit raises [Exhausted], which the query boundary ([run] / [decide])
   turns into a structured [Gave_up] verdict - never an escaping
   exception; likewise a coefficient overflow ([Zint.Overflow]).

   Clients map [Gave_up] to the sound conservative answer for their
   question (a dependence is assumed live, a kill/cover/refinement is
   not proved, a doall is illegal).  Because the solver is deterministic
   and limits only truncate its work, a query that *completes* under a
   tight budget returns the same verdict under any looser budget with no
   deadline: tightening budgets can only turn [Proved]/[Disproved] into
   [Gave_up], never flip them.

   Fault injection ([set_fault_injection]) deterministically forces a
   seeded fraction of query boundaries to [Gave_up Injected] before any
   work happens, which lets a differential harness check that the
   conservative mappings above are actually wired in everywhere.  The
   fault decision for a query is a pure function of (seed, query key):
   there is no mutable stream state, so the same query faults the same
   way no matter which domain runs it or in what order — the property
   the parallel-fault soundness tests lean on.  Queries that supply no
   [fault_key] never fault.

   The limits and the active meter live in a per-domain *world*
   (Domain.DLS), so any domain can run queries without a lock.  Nested
   entries within one domain (e.g. [Gist.implies] calling
   [Elim.project]) share the outermost query's meter.  Each outermost
   query records its outcome (count, give-up reason, peaks, worst
   query) in the domain's [Metrics] record.  The fault-injection
   configuration is an immutable process-wide setting read by every
   domain (publish it before spawning parallel work). *)

type reason = Fuel | Splinters | Disjuncts | Deadline | Injected | Overflow

let reason_to_string = function
  | Fuel -> "fuel"
  | Splinters -> "splinters"
  | Disjuncts -> "disjuncts"
  | Deadline -> "deadline"
  | Injected -> "injected"
  | Overflow -> "overflow"

type verdict = Proved | Disproved | Gave_up of reason

let verdict_to_string = function
  | Proved -> "proved"
  | Disproved -> "disproved"
  | Gave_up r -> "gave up (" ^ reason_to_string r ^ ")"

exception Exhausted of reason

(* The exceptions that end solver work with a give-up: [Exhausted] for
   a blown limit, [Zint.Overflow] for a coefficient that no longer fits
   a native integer. *)
let reason_of_exn = function
  | Exhausted r -> Some r
  | Zint.Overflow -> Some Overflow
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Limits                                                              *)
(* ------------------------------------------------------------------ *)

type limits = {
  fuel : int;
  splinters : int;
  disjuncts : int;
  deadline_ms : float option;
}

let default =
  { fuel = 100_000; splinters = 100_000; disjuncts = 2048; deadline_ms = None }

(* [le a b]: budget [a] is no larger than [b] in every dimension (a
   query that gives up under [b] would also give up under [a]).  A
   finite deadline is tighter than none. *)
let le a b =
  a.fuel <= b.fuel && a.splinters <= b.splinters && a.disjuncts <= b.disjuncts
  &&
  match (a.deadline_ms, b.deadline_ms) with
  | _, None -> true
  | None, Some _ -> false
  | Some x, Some y -> x <= y

(* ------------------------------------------------------------------ *)
(* The meter                                                           *)
(* ------------------------------------------------------------------ *)

type meter = {
  m_limits : limits;
  mutable m_fuel : int;
  mutable m_splinters : int;
  m_deadline : float option; (* absolute, seconds *)
}

(* The earlier of two optional absolute deadlines. *)
let min_deadline a b =
  match (a, b) with
  | None, d | d, None -> d
  | Some x, Some y -> Some (Float.min x y)

(* [wall] is the ambient absolute request deadline (if any): the meter
   enforces whichever of the per-query deadline and the wall deadline
   comes first, so a query started late inside a deadlined request gets
   a correspondingly smaller time budget. *)
let make_meter ?wall l =
  {
    m_limits = l;
    m_fuel = 0;
    m_splinters = 0;
    m_deadline =
      min_deadline wall
        (Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.)) l.deadline_ms);
  }

let check_deadline m =
  match m.m_deadline with
  | Some t when Unix.gettimeofday () > t -> raise (Exhausted Deadline)
  | _ -> ()

let tick m =
  m.m_fuel <- m.m_fuel + 1;
  if m.m_fuel > m.m_limits.fuel then raise (Exhausted Fuel);
  (* the clock is off the per-step hot path *)
  if m.m_fuel land 255 = 0 then check_deadline m

let add_splinters m n =
  m.m_splinters <- Zint.(to_int (add (of_int m.m_splinters) (of_int n)));
  if m.m_splinters > m.m_limits.splinters then raise (Exhausted Splinters)

(* ------------------------------------------------------------------ *)
(* The per-domain world                                                *)
(* ------------------------------------------------------------------ *)

type world = {
  mutable w_limits : limits;
  mutable w_active : meter option;
  mutable w_wall_deadline : float option;
      (* absolute request-level deadline, folded into every meter *)
}

let world_key =
  Domain.DLS.new_key (fun () ->
      {
        w_limits = default;
        w_active = None;
        w_wall_deadline = None;
      })

let world () = Domain.DLS.get world_key

let current_limits () = (world ()).w_limits

let with_limits l f =
  let w = world () in
  let saved = w.w_limits in
  w.w_limits <- l;
  Fun.protect ~finally:(fun () -> w.w_limits <- saved) f

let with_wall_deadline d f =
  let w = world () in
  let saved = w.w_wall_deadline in
  w.w_wall_deadline <- d;
  Fun.protect ~finally:(fun () -> w.w_wall_deadline <- saved) f

let wall_expired () =
  match (world ()).w_wall_deadline with
  | Some d -> Unix.gettimeofday () >= d
  | None -> false

let disjunct_limit () =
  let w = world () in
  match w.w_active with
  | Some m -> m.m_limits.disjuncts
  | None -> w.w_limits.disjuncts

(* Solver entry points call this: reuse the ambient meter when already
   inside a query, otherwise install a fresh one for the duration. *)
let with_meter f =
  let w = world () in
  match w.w_active with
  | Some m -> f m
  | None ->
    let m = make_meter ?wall:w.w_wall_deadline w.w_limits in
    w.w_active <- Some m;
    Fun.protect ~finally:(fun () -> w.w_active <- None) (fun () -> f m)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

type fault = { f_seed : int; f_rate : float }

(* Immutable once set; read (not written) by worker domains.  The
   happens-before edge is the task-queue mutex of the pool that ships
   work to them, so configure faults before fanning out. *)
let fault_cfg : fault option ref = ref None

let set_fault_injection ~seed ~rate =
  if rate <= 0. then fault_cfg := None
  else fault_cfg := Some { f_seed = seed; f_rate = rate }

let clear_fault_injection () = fault_cfg := None
let fault_injection_active () = !fault_cfg <> None

(* FNV-1a over the key, mixed with the seed, finished with the
   splitmix64 finalizer: a pure, well-spread hash of (seed, key). *)
let fnv64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let keyed_fault f key =
  let z =
    Int64.add (fnv64 key)
      (Int64.mul (Int64.of_int (f.f_seed + 1)) 0x9E3779B97F4A7C15L)
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let u = Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992. in
  u < f.f_rate

let draw_fault fault_key =
  match !fault_cfg with
  | None -> false
  | Some f -> ( match fault_key with None -> false | Some k -> keyed_fault f (k ()))

(* ------------------------------------------------------------------ *)
(* Scoped worlds (parallel tasks)                                      *)
(* ------------------------------------------------------------------ *)

let scoped ~limits f =
  let w = world () in
  let saved_limits = w.w_limits and saved_active = w.w_active in
  w.w_limits <- limits;
  w.w_active <- None;
  Fun.protect
    ~finally:(fun () ->
      w.w_limits <- saved_limits;
      w.w_active <- saved_active)
    f

(* ------------------------------------------------------------------ *)
(* Query boundaries                                                    *)
(* ------------------------------------------------------------------ *)

let record_gave_up (t : Metrics.t) = function
  | Fuel -> t.gave_up_fuel <- t.gave_up_fuel + 1
  | Splinters -> t.gave_up_splinters <- t.gave_up_splinters + 1
  | Disjuncts -> t.gave_up_disjuncts <- t.gave_up_disjuncts + 1
  | Deadline -> t.gave_up_deadline <- t.gave_up_deadline + 1
  | Injected -> t.gave_up_injected <- t.gave_up_injected + 1
  | Overflow -> t.gave_up_overflow <- t.gave_up_overflow + 1

let run ?(label = "query") ?fault_key (f : unit -> 'a) : ('a, reason) result =
  let w = world () in
  match w.w_active with
  (* nested boundary inside an already-metered query: share the meter,
     just structure the outcome *)
  | Some _ -> (
    try Ok (f ())
    with e -> ( match reason_of_exn e with Some r -> Error r | None -> raise e))
  | None ->
    let t = Metrics.current () in
    t.queries <- t.queries + 1;
    if draw_fault fault_key then begin
      record_gave_up t Injected;
      Error Injected
    end
    else begin
      let m = make_meter ?wall:w.w_wall_deadline w.w_limits in
      w.w_active <- Some m;
      let finish () =
        w.w_active <- None;
        if m.m_fuel > t.peak_fuel then t.peak_fuel <- m.m_fuel;
        if m.m_splinters > t.peak_splinters then
          t.peak_splinters <- m.m_splinters;
        Metrics.note_worst t ~fuel:m.m_fuel ~label
      in
      match f () with
      | v ->
        finish ();
        Ok v
      | exception e -> (
        finish ();
        match reason_of_exn e with
        | Some r ->
          record_gave_up t r;
          Error r
        | None -> raise e)
    end

let decide ?label ?fault_key (f : unit -> bool) : verdict =
  match run ?label ?fault_key f with
  | Ok true -> Proved
  | Ok false -> Disproved
  | Error r -> Gave_up r

module Telemetry = struct
  include Metrics

  let gave_up_total () = gave_up (current ())
end
