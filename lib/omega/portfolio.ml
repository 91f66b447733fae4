(* Decision portfolio: fast path -> complete.

   The cascade is a pure dispatch layer: the fast path is a sound
   closure that proves or passes, the complete procedure answers when it
   passes, and the whole run sits inside a [Budget] query boundary so
   resource blowups surface as structured verdicts.  The per-tier
   accounting goes to the tier rows of the domain's [Metrics] record. *)

type tier = Tier_fast | Tier_complete

module Stats = Metrics

module Oracle = struct
  let lock = Mutex.create ()
  let enabled = ref false
  let n_checks = ref 0
  let found : string list ref = ref []

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

  let record label want =
    Mutex.lock lock;
    incr n_checks;
    if not want then found := label :: !found;
    Mutex.unlock lock
end

let timed (row : Metrics.row) f =
  row.attempts <- row.attempts + 1;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> row.elapsed <- row.elapsed +. (Unix.gettimeofday () -. t0))
    f

let decide ?label ?fault_key ?fast complete =
  let decided = ref None in
  let result =
    Budget.run ?label ?fault_key (fun () ->
        let stats = Metrics.current () in
        let run_complete () = timed stats.complete complete in
        let decides (row : Metrics.row) tier =
          row.decides <- row.decides + 1;
          decided := Some tier
        in
        match fast with
        | Some f when timed stats.fast f ->
            decides stats.fast Tier_fast;
            if Oracle.active () then
              Oracle.record (Option.value label ~default:"?") (run_complete ());
            true
        | Some _ | None ->
            let v = run_complete () in
            decides stats.complete Tier_complete;
            v)
  in
  match result with
  | Ok true -> (Budget.Proved, !decided)
  | Ok false -> (Budget.Disproved, !decided)
  | Error r -> (Budget.Gave_up r, None)
