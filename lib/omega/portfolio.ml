(* Tiered decision portfolio: screen -> fast path -> complete.

   The cascade is a pure dispatch layer: each incomplete tier is a sound
   closure returning a [Screen.answer], the first definite answer wins,
   the complete procedure answers when none does, and the whole run sits
   inside a [Budget] query boundary so resource blowups surface as
   structured verdicts.  The per-tier accounting goes to the tier rows
   of the domain's [Metrics] record. *)

type tier = Tier_screen | Tier_fast | Tier_complete

let tier_to_string = function
  | Tier_screen -> "screen"
  | Tier_fast -> "fast"
  | Tier_complete -> "complete"

let tier_of_string = function
  | "screen" -> Some Tier_screen
  | "fast" -> Some Tier_fast
  | "complete" -> Some Tier_complete
  | _ -> None

module Stats = Metrics

let row_of (m : Metrics.t) = function
  | Tier_screen -> m.screen
  | Tier_fast -> m.fast
  | Tier_complete -> m.complete

module Oracle = struct
  type divergence = { label : string; tier : tier; got : bool; want : bool }

  let lock = Mutex.create ()
  let enabled = ref false
  let n_checks = ref 0
  let found : divergence list ref = ref []

  let enable () =
    Mutex.lock lock;
    enabled := true;
    n_checks := 0;
    found := [];
    Mutex.unlock lock

  let disable () =
    Mutex.lock lock;
    enabled := false;
    Mutex.unlock lock

  let active () = !enabled

  let checks () =
    Mutex.lock lock;
    let n = !n_checks in
    Mutex.unlock lock;
    n

  let divergences () =
    Mutex.lock lock;
    let d = List.rev !found in
    Mutex.unlock lock;
    d

  let record label tier got want =
    Mutex.lock lock;
    incr n_checks;
    if got <> want then found := { label; tier; got; want } :: !found;
    Mutex.unlock lock
end

let timed (row : Metrics.row) f =
  row.attempts <- row.attempts + 1;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> row.elapsed <- row.elapsed +. (Unix.gettimeofday () -. t0))
    f

let decide ?label ?fault_key tiers complete =
  let decided = ref None in
  let result =
    Budget.run ?label ?fault_key (fun () ->
        let stats = Metrics.current () in
        let run_complete () = timed stats.complete complete in
        let rec go = function
          | [] ->
              let v = run_complete () in
              stats.complete.decides <- stats.complete.decides + 1;
              decided := Some Tier_complete;
              v
          | (tier, f) :: rest -> (
              let row = row_of stats tier in
              match timed row f with
              | Screen.Unknown -> go rest
              | answer ->
                  let v = answer = Screen.Proved in
                  row.decides <- row.decides + 1;
                  decided := Some tier;
                  if Oracle.active () then
                    Oracle.record
                      (Option.value label ~default:"?")
                      tier v (run_complete ());
                  v)
        in
        go tiers)
  in
  match result with
  | Ok true -> (Budget.Proved, !decided)
  | Ok false -> (Budget.Disproved, !decided)
  | Error r -> (Budget.Gave_up r, None)
