(* The solver's counters, one record per domain (see metrics.mli).

   Hot paths bump fields of [current ()] with plain stores.  Parallel
   tasks swap in a fresh record with [exchange] and fold it back with
   [merge_into] at batch boundaries (Depend.Par); every field combines
   commutatively, so the merged totals equal the serial run's. *)

type row = {
  mutable attempts : int;
  mutable decides : int;
  mutable elapsed : float;
}

type t = {
  mutable queries : int;
  mutable gave_up_fuel : int;
  mutable gave_up_splinters : int;
  mutable gave_up_disjuncts : int;
  mutable gave_up_deadline : int;
  mutable gave_up_injected : int;
  mutable gave_up_overflow : int;
  mutable peak_fuel : int;
  mutable peak_splinters : int;
  mutable worst_label : string;
  mutable worst_fuel : int;
  mutable fm_eliminations : int;
  mutable fm_exact : int;
  mutable fm_split : int;
  mutable pruned_interval : int;
  quick : row;
  screen : row;
  fast : row;
  complete : row;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let make_row () = { attempts = 0; decides = 0; elapsed = 0. }

let make () =
  {
    queries = 0;
    gave_up_fuel = 0;
    gave_up_splinters = 0;
    gave_up_disjuncts = 0;
    gave_up_deadline = 0;
    gave_up_injected = 0;
    gave_up_overflow = 0;
    peak_fuel = 0;
    peak_splinters = 0;
    worst_label = "";
    worst_fuel = 0;
    fm_eliminations = 0;
    fm_exact = 0;
    fm_split = 0;
    pruned_interval = 0;
    quick = make_row ();
    screen = make_row ();
    fast = make_row ();
    complete = make_row ();
    memo_hits = 0;
    memo_misses = 0;
  }

let key = Domain.DLS.new_key make
let current () = Domain.DLS.get key
let reset () = Domain.DLS.set key (make ())

let exchange fresh =
  let old = current () in
  Domain.DLS.set key fresh;
  old

(* The worst-query cell is a commutative, associative join — (higher
   fuel, then lexicographically-least label) with ("", 0) as identity —
   so folding per-domain records in any order gives one answer, and the
   serial accumulation in [Budget.run] agrees with any parallel merge. *)
let note_worst t ~fuel ~label =
  if fuel > t.worst_fuel then begin
    t.worst_fuel <- fuel;
    t.worst_label <- label
  end
  else if fuel = t.worst_fuel && fuel > 0 && label < t.worst_label then
    t.worst_label <- label

let merge_row dst src =
  dst.attempts <- dst.attempts + src.attempts;
  dst.decides <- dst.decides + src.decides;
  dst.elapsed <- dst.elapsed +. src.elapsed

let merge_into dst src =
  dst.queries <- dst.queries + src.queries;
  dst.gave_up_fuel <- dst.gave_up_fuel + src.gave_up_fuel;
  dst.gave_up_splinters <- dst.gave_up_splinters + src.gave_up_splinters;
  dst.gave_up_disjuncts <- dst.gave_up_disjuncts + src.gave_up_disjuncts;
  dst.gave_up_deadline <- dst.gave_up_deadline + src.gave_up_deadline;
  dst.gave_up_injected <- dst.gave_up_injected + src.gave_up_injected;
  dst.gave_up_overflow <- dst.gave_up_overflow + src.gave_up_overflow;
  dst.peak_fuel <- max dst.peak_fuel src.peak_fuel;
  dst.peak_splinters <- max dst.peak_splinters src.peak_splinters;
  note_worst dst ~fuel:src.worst_fuel ~label:src.worst_label;
  dst.fm_eliminations <- dst.fm_eliminations + src.fm_eliminations;
  dst.fm_exact <- dst.fm_exact + src.fm_exact;
  dst.fm_split <- dst.fm_split + src.fm_split;
  dst.pruned_interval <- dst.pruned_interval + src.pruned_interval;
  merge_row dst.quick src.quick;
  merge_row dst.fast src.fast;
  merge_row dst.complete src.complete;
  dst.memo_hits <- dst.memo_hits + src.memo_hits;
  dst.memo_misses <- dst.memo_misses + src.memo_misses

let gave_up_by_reason t =
  [
    ("fuel", t.gave_up_fuel);
    ("splinters", t.gave_up_splinters);
    ("disjuncts", t.gave_up_disjuncts);
    ("deadline", t.gave_up_deadline);
    ("injected", t.gave_up_injected);
    ("overflow", t.gave_up_overflow);
  ]

let gave_up t = List.fold_left (fun n (_, k) -> n + k) 0 (gave_up_by_reason t)

let solver_summary t =
  Printf.sprintf
    "%d FM eliminations (%d exact, %d split), %d constraints interval-pruned"
    t.fm_eliminations t.fm_exact t.fm_split t.pruned_interval

let tiers_summary t =
  let tier name r =
    Printf.sprintf "%s %d/%d (%.1fms)" name r.attempts r.decides
      (r.elapsed *. 1000.)
  in
  Printf.sprintf "quick %d/%d, %s, %s" t.quick.attempts t.quick.decides
    (tier "fast" t.fast) (tier "complete" t.complete)

let governance_summary t =
  let reasons =
    List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) (gave_up_by_reason t)
  in
  Printf.sprintf
    "%d solver queries, %d gave up (%s); peak fuel %d, peak splinters %d%s"
    t.queries (gave_up t)
    (String.concat ", " reasons)
    t.peak_fuel t.peak_splinters
    (if t.worst_label = "" then ""
     else Printf.sprintf "; worst query %s (fuel %d)" t.worst_label t.worst_fuel)
