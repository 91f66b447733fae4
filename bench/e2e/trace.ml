(* Spans and counters recorded from outside the program under test: one
   span around each call the benchmark makes into a layer's public
   function, plus deltas of the counters the libraries already keep.
   Nothing here reaches inside lib/.  Spans stay in memory and are
   written out when the run ends. *)

module Portfolio = Omega.Portfolio
module Budget = Omega.Budget
module Tuning = Omega.Tuning
module Memo = Depend.Analyses.Memo

type span = {
  id : int;
  parent : int;  (** 0 for a request's root span *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack = ref [ 0 ]
let current_req = ref 0
let next_req = ref 1
let now = Unix.gettimeofday

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let add ~parent ~req name t0 t1 =
  let id = fresh_id () in
  spans := { id; parent; req; name; t0; t1 } :: !spans;
  id

(* [finish id t0] runs once the span is recorded, outside its interval. *)
let span_then name f finish =
  if not !on then f ()
  else begin
    let id = fresh_id () and parent = List.hd !stack and t0 = now () in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        spans := { id; parent; req = !current_req; name; t0; t1 } :: !spans;
        finish id t0)
      f
  end

let span name f = span_then name f (fun _ _ -> ())

let fresh_req () =
  let r = !next_req in
  incr next_req;
  r

(* A root span with its own request id. *)
let request root f =
  current_req := fresh_req ();
  span root f

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let get name = Option.value (Hashtbl.find_opt counters name) ~default:0.
let count name v = if !on then Hashtbl.replace counters name (get name +. v)
let peak name v = if !on then Hashtbl.replace counters name (Float.max (get name) v)

let tier_names = [| "quick"; "screen"; "fast"; "complete" |]

(* Tier work inside [parent], as one synthesized child span per timed
   tier laid end to end from [t0]: the portfolio keeps totals per tier,
   not start/end times.  The quick tier is never timed, so it only
   counts. *)
let add_tiers ?(counts = true) ~parent ~req ~t0 rows =
  let t = ref t0 in
  Array.iteri
    (fun i (attempts, decides, seconds) ->
      let name = tier_names.(i) in
      if counts then begin
        count ("tier_" ^ name ^ "_attempts") (float_of_int attempts);
        count ("tier_" ^ name ^ "_decides") (float_of_int decides)
      end;
      if seconds > 0. then begin
        ignore (add ~parent ~req ("tier." ^ name) !t (!t +. seconds));
        t := !t +. seconds
      end)
    rows

type snap = {
  tiers : (int * int * float) array;
  queries : int;
  gave_up : int;
  fm_eliminations : int;
  fm_splits : int;
  pruned_interval : int;
  memo_hits : int;
  memo_misses : int;
}

let snap () =
  let p = Portfolio.Stats.current () in
  let row (r : Portfolio.Stats.row) =
    (r.Portfolio.Stats.attempts, r.Portfolio.Stats.decides, r.Portfolio.Stats.elapsed)
  in
  let b = Budget.Telemetry.current () and t = Tuning.Stats.current () in
  {
    tiers =
      [| row p.Portfolio.Stats.quick; row p.Portfolio.Stats.screen;
         row p.Portfolio.Stats.fast; row p.Portfolio.Stats.complete |];
    queries = b.Budget.Telemetry.queries;
    gave_up = Budget.Telemetry.gave_up_total ();
    fm_eliminations = t.Tuning.Stats.fm_eliminations;
    fm_splits = t.Tuning.Stats.fm_split;
    pruned_interval = t.Tuning.Stats.pruned_interval;
    memo_hits = Memo.stats.Memo.hits;
    memo_misses = Memo.stats.Memo.misses;
  }

(* [counts] off: only the solver-core counters, which petitd's
   responses do not carry. *)
let count_delta ~counts a b =
  let d name f = count name (float_of_int (f b - f a)) in
  d "fm_eliminations" (fun s -> s.fm_eliminations);
  d "fm_splits" (fun s -> s.fm_splits);
  d "pruned_interval" (fun s -> s.pruned_interval);
  if counts then begin
    d "solver_queries" (fun s -> s.queries);
    d "gave_up" (fun s -> s.gave_up);
    d "memo_hits" (fun s -> s.memo_hits);
    d "memo_misses" (fun s -> s.memo_misses);
    peak "peak_fuel"
      (float_of_int (Budget.Telemetry.current ()).Budget.Telemetry.peak_fuel)
  end

(* [span] for a call that may run solver queries: the counter deltas
   across the call are added, and its tier time becomes child spans. *)
let solver_span ?(counts = true) name f =
  if not !on then f ()
  else begin
    let before = snap () in
    span_then name f (fun id t0 ->
        let after = snap () in
        count_delta ~counts before after;
        add_tiers ~counts ~parent:id ~req:!current_req ~t0
          (Array.map2
             (fun (a0, d0, e0) (a1, d1, e1) -> (a1 - a0, d1 - d0, e1 -. e0))
             before.tiers after.tiers))
  end

(* ------------------------------------------------------------------ *)
(* The layer table                                                     *)
(* ------------------------------------------------------------------ *)

let dur s = s.t1 -. s.t0

type layer = { l_count : int; l_total : float; l_self : float }

(* Self time is a span's duration minus its children's, so within one
   request the self times, the root's own (the residual) included, add
   up to the root span; [identity_error] is the largest float drift from
   that over all requests. *)
type table = {
  layers : ((string * string) * layer) list;
      (** (root name, span name) -> totals, sorted; the root's own row
          holds the request spans, its self time is the residual *)
  identity_error : float;
}

(* Span times are first read on [clock] (see Calib). *)
let table ~clock () =
  let all = List.map (fun s -> { s with t0 = clock s.t0; t1 = clock s.t1 }) !spans in
  let child_total : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let root_of : (int, string * float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent = 0 then Hashtbl.replace root_of s.req (s.name, dur s)
      else
        Hashtbl.replace child_total s.parent
          (dur s +. Option.value (Hashtbl.find_opt child_total s.parent) ~default:0.))
    all;
  let self s = dur s -. Option.value (Hashtbl.find_opt child_total s.id) ~default:0. in
  let layers : (string * string, layer) Hashtbl.t = Hashtbl.create 32 in
  let selves : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let key = (fst (Hashtbl.find root_of s.req), s.name) in
      let l =
        Option.value (Hashtbl.find_opt layers key)
          ~default:{ l_count = 0; l_total = 0.; l_self = 0. }
      in
      Hashtbl.replace layers key
        { l_count = l.l_count + 1; l_total = l.l_total +. dur s; l_self = l.l_self +. self s };
      Hashtbl.replace selves s.req
        (self s +. Option.value (Hashtbl.find_opt selves s.req) ~default:0.))
    all;
  {
    layers = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []);
    identity_error =
      Hashtbl.fold
        (fun req sum acc ->
          Float.max acc (Float.abs (snd (Hashtbl.find root_of req) -. sum)))
        selves 0.;
  }

let layer t ~root name =
  Option.value (List.assoc_opt (root, name) t.layers)
    ~default:{ l_count = 0; l_total = 0.; l_self = 0. }

(* One JSON object per line, times in seconds from the first span. *)
let write_spans path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Serve.Json.to_string
           (Serve.Json.Obj
              [
                ("id", Serve.Json.Int s.id);
                ("parent", Serve.Json.Int s.parent);
                ("req", Serve.Json.Int s.req);
                ("name", Serve.Json.Str s.name);
                ("start", Serve.Json.Float (s.t0 -. origin));
                ("end", Serve.Json.Float (s.t1 -. origin));
              ]));
      output_char oc '\n')
    all;
  close_out oc
