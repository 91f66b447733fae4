(* Summary statistics and seeded schedules shared by every workload. *)

(* Nearest rank: the ⌈p·n⌉-th smallest of [n] samples, 1-based.  The
   epsilon keeps a product such as 0.29 * 100 = 28.999999999999996 from
   rounding the wrong way. *)
let rank p n = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [p] in [0, 1] over an already sorted, non-empty array. *)
let percentile p a = a.(rank p (Array.length a) - 1)

type summary = { n : int; q1 : float; median : float; q3 : float }

let summarize xs =
  match sorted xs with
  | [||] -> { n = 0; q1 = nan; median = nan; q3 = nan }
  | a ->
    {
      n = Array.length a;
      q1 = percentile 0.25 a;
      median = percentile 0.5 a;
      q3 = percentile 0.75 a;
    }

let sum xs = List.fold_left ( +. ) 0. xs

(* One independent stream per (seed, purpose, index): a pass's order
   does not depend on how many passes ran before it. *)
let rng ~seed ~salt ~index = Random.State.make [| seed; salt; index |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Poisson arrivals: due offsets in seconds from the phase start, with
   exponential gaps of mean [1 / rate], up to [duration]. *)
let arrivals st ~rate ~duration =
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float st 1.) /. rate) in
    if t >= duration then List.rev acc else go t (t :: acc)
  in
  go 0. []
