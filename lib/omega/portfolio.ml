(* Tiered decision portfolio: screen -> fast path -> complete.

   The cascade is a pure dispatch layer: each tier is a sound closure
   returning a [Screen.answer], the first definite answer wins, and the
   whole run sits inside a [Budget] query boundary so resource blowups
   and incomplete-plan give-ups surface as structured verdicts.  The
   per-tier accounting goes to the tier rows of the domain's [Metrics]
   record. *)

type backend = Omega | Cascade

let backend = ref Cascade

let backend_to_string = function
  | Omega -> "omega"
  | Cascade -> "cascade"

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

let plan ?screen ?fast ~complete () =
  let maybe tier closure plan =
    match closure with None -> plan | Some f -> (tier, f) :: plan
  in
  let upper = maybe Tier_fast fast [ (Tier_complete, complete) ] in
  match !backend with
  | Omega -> upper
  | Cascade -> maybe Tier_screen screen upper

let timed (row : Metrics.row) f =
  row.attempts <- row.attempts + 1;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> row.elapsed <- row.elapsed +. (Unix.gettimeofday () -. t0))
    f

let decide ?label ?fault_key tiers =
  let decided = ref None in
  let result =
    Budget.run ?label ?fault_key (fun () ->
        let stats = Metrics.current () in
        let rec go = function
          | [] -> raise (Budget.Exhausted Budget.Incomplete)
          | (tier, f) :: rest -> (
              let row = row_of stats tier in
              match timed row f with
              | Screen.Unknown -> go rest
              | answer ->
                  let v = answer = Screen.Proved in
                  row.decides <- row.decides + 1;
                  decided := Some tier;
                  (if tier <> Tier_complete && Oracle.active () then
                     match
                       List.find_opt (fun (t, _) -> t = Tier_complete) rest
                     with
                     | Some (_, comp) ->
                         let want =
                           match timed (row_of stats Tier_complete) comp
                           with
                           | Screen.Proved -> true
                           | Screen.Disproved -> false
                           | Screen.Unknown ->
                               (* the complete tier never passes *)
                               assert false
                         in
                         Oracle.record
                           (match label with Some l -> l | None -> "?")
                           tier v want
                     | None -> ());
                  v)
        in
        go tiers)
  in
  match result with
  | Ok true -> (Budget.Proved, !decided)
  | Ok false -> (Budget.Disproved, !decided)
  | Error r -> (Budget.Gave_up r, None)
