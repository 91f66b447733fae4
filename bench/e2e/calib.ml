(* Host-speed calibration.  On a shared host the processor this
   benchmark runs on changes speed by up to 2x from one second to the
   next, and stays slow or fast for minutes, as other tenants load the
   machine; processor time moves with wall time, so the process is not
   waiting, the processor is slower.  A fixed chunk of integer work,
   run between requests at most every [interval] seconds, tracks that
   speed.  Every measured interval is then read on a reference clock:
   the time it would have taken on a host where one chunk takes
   [reference] seconds.  The program's own work slows and speeds up with
   the chunk (README.md gives the evidence), so reference times stay
   steady while wall times swing.

   The chunk neither allocates nor touches more than a few registers,
   so nothing the program under test does to its heap or caches changes
   what a chunk costs. *)

let now = Unix.gettimeofday
let iterations = 200_000

(* About the chunk's time on the 2.0 GHz Xeon host of the baseline in
   its fast spells, so that reference times read close to the wall
   times of an unloaded host. *)
let reference = 0.0004
let interval = 0.05

let chunk () =
  let s = ref 0 in
  for i = 1 to iterations do
    s := !s + (i * i mod 7)
  done;
  ignore (Sys.opaque_identity !s)

(* (midpoint, seconds) of every chunk run, newest first *)
let samples : (float * float) list ref = ref []
let last = ref neg_infinity

let sample () =
  let t0 = now () in
  chunk ();
  let t1 = now () in
  samples := ((t0 +. t1) /. 2., t1 -. t0) :: !samples;
  last := t1

(* Call between requests, never while one is in flight. *)
let tick () = if now () -. !last >= interval then sample ()

let durations () = List.map snd !samples

(* The reference clock: a map from wall time to reference time,
   increasing, built from the chunks run so far.  Between two chunks
   time runs at [reference] over their mean duration; before the first
   and after the last, at that chunk's rate.  Each chunk's duration is
   first replaced by the median of it and its two neighbours, so that
   one chunk caught by an interrupt moves nothing.  With no chunks it
   is wall time. *)
let clock () =
  let a = Array.of_list (List.rev !samples) in
  let n = Array.length a in
  if n = 0 then Fun.id
  else begin
    let m = Array.map fst a in
    let c =
      Array.init n (fun i ->
          let d j = snd a.(max 0 (min (n - 1) j)) in
          let x = d (i - 1) and y = d i and z = d (i + 1) in
          Float.max (Float.min x y) (Float.min (Float.max x y) z))
    in
    let rate i j = reference /. ((c.(i) +. c.(j)) /. 2.) in
    let cum = Array.make n 0. in
    for i = 1 to n - 1 do
      cum.(i) <- cum.(i - 1) +. ((m.(i) -. m.(i - 1)) *. rate (i - 1) i)
    done;
    fun t ->
      if t <= m.(0) then (t -. m.(0)) *. rate 0 0
      else if t >= m.(n - 1) then cum.(n - 1) +. ((t -. m.(n - 1)) *. rate (n - 1) (n - 1))
      else begin
        (* the last i with m.(i) <= t *)
        let lo = ref 0 and hi = ref (n - 1) in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if m.(mid) <= t then lo := mid else hi := mid
        done;
        cum.(!lo) +. ((t -. m.(!lo)) *. rate !lo (!lo + 1))
      end
  end
