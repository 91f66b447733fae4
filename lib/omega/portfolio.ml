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
  let unsettled : string list ref = ref []

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let enable () =
    locked (fun () ->
        enabled := true;
        n_checks := 0;
        found := [];
        unsettled := [])

  let disable () = locked (fun () -> enabled := false)
  let checks () = locked (fun () -> !n_checks)
  let divergences () = locked (fun () -> List.rev !found)
  let gave_up () = locked (fun () -> List.rev !unsettled)

  (* The replay runs on a throwaway [Metrics] record, under a fresh meter
     at the current limits, outside any query that is running: whatever
     it costs or however it ends, the run's verdicts and counters are
     those of a run without the oracle.  A replay is the complete
     procedure alone, so it poses no portfolio query and leaves the
     verdict memo alone. *)
  let replay label f =
    if !enabled then begin
      let saved = Metrics.exchange (Metrics.make ()) in
      let verdict =
        Fun.protect
          ~finally:(fun () -> ignore (Metrics.exchange saved))
          (fun () -> Budget.scoped ~limits:(Budget.current_limits ()) f)
      in
      locked (fun () ->
          incr n_checks;
          match verdict with
          | Budget.Proved -> ()
          | Budget.Disproved -> found := label :: !found
          | Budget.Gave_up _ -> unsettled := label :: !unsettled)
    end
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
        let decides (row : Metrics.row) tier =
          row.decides <- row.decides + 1;
          decided := Some tier
        in
        match fast with
        | Some f when timed stats.fast f ->
            decides stats.fast Tier_fast;
            true
        | Some _ | None ->
            let v = timed stats.complete complete in
            decides stats.complete Tier_complete;
            v)
  in
  match result with
  | Ok true ->
      (* a fast-path proof is replayed after the query, on its own *)
      if !decided = Some Tier_fast then
        Oracle.replay
          (Option.value label ~default:"?")
          (fun () -> Budget.decide ?label complete);
      (Budget.Proved, !decided)
  | Ok false -> (Budget.Disproved, !decided)
  | Error r -> (Budget.Gave_up r, None)
