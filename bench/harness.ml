(* The bench harness: the mechanics every suite of main.ml shares.

   - The command line.  Each subcommand declares its flags; an unknown
     command or flag, a flag missing its value, or a malformed number
     prints the usage line (generated from the declarations) on stderr
     and exits 2.
   - The gate.  [fail] prints and records a violation; [finish] writes
     the suite's artifact and exits 1 if any violation was recorded.
   - The clock.  [time], [warm_best], and [calibrate]/[per_call] for
     samples below the clock's resolution.
   - Scoped overrides of the global switches under test ([with_ref]).

   All artifacts go through the shared serialization module
   (lib/serve/json.ml), the same one behind the wire protocol and the
   CLI [--json] modes, so escaping and number formatting are decided in
   exactly one place. *)

module Json = Serve.Json

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Timing figures keep their historical six decimal places. *)
let jf x = Json.Float (Float.round (x *. 1e6) /. 1e6)

let write_json ~out j =
  let oc = open_out out in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

(* A flag either switches something on or takes one value; a value
   parser signals a malformed value with [Failure]. *)
type spec = Switch of bool ref | Value of string * (string -> unit)

let int r = Value ("N", fun v -> r := int_of_string v)
let int_opt r = Value ("N", fun v -> r := Some (int_of_string v))
let file r = Value ("FILE", fun v -> r := v)

let ints r =
  Value
    ( "S1,S2",
      fun v -> r := List.map int_of_string (String.split_on_char ',' v) )

type command = {
  name : string;
  flags : (string * spec) list;
  run : unit -> unit;
}

let usage commands =
  let flag (f, spec) =
    match spec with
    | Switch _ -> Printf.sprintf "[%s]" f
    | Value (meta, _) -> Printf.sprintf "[%s %s]" f meta
  in
  Printf.sprintf "usage: main.exe [%s]"
    (String.concat " | "
       (List.map
          (fun c -> String.concat " " (c.name :: List.map flag c.flags))
          commands))

(* No arguments runs [default]; otherwise the first argument names the
   command and the rest must be its flags. *)
let dispatch ~default commands =
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "main.exe: %s\n%s\n" msg (usage commands);
        exit 2)
      fmt
  in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> default ()
  | name :: args -> (
    match List.find_opt (fun c -> c.name = name) commands with
    | None -> bad "unknown command %s" name
    | Some c ->
      let rec go = function
        | [] -> ()
        | f :: rest -> (
          match (List.assoc_opt f c.flags, rest) with
          | None, _ -> bad "%s: unknown flag %s" name f
          | Some (Switch r), _ ->
            r := true;
            go rest
          | Some (Value (meta, _)), [] -> bad "%s needs a value (%s)" f meta
          | Some (Value (meta, set)), v :: rest -> (
            match set v with
            | () -> go rest
            | exception Failure _ -> bad "%s expects %s, got %S" f meta v))
      in
      go args;
      c.run ())

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

let recorded = ref []

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "VIOLATION: %s\n" s;
      recorded := s :: !recorded)
    fmt

let violations () = Json.List (List.rev_map (fun v -> Json.Str v) !recorded)
let sound () = !recorded = []

let finish ~out json =
  write_json ~out json;
  if not (sound ()) then exit 1

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ms t = t *. 1000.

(* Warmup + best-of-N: one untimed run heats caches, allocators and (for
   the VM) branch predictors, then the minimum of [reps] timed runs is
   reported — minima are far less noisy than single shots for
   sub-second work. *)
let warm_best ~reps f =
  ignore (f ());
  let rec go best k =
    if k = 0 then best
    else
      let _, t = time f in
      go (min best t) (k - 1)
  in
  go infinity reps

(* Sub-resolution samples: a small kernel or analysis finishes in
   microseconds, near the clock tick, so single-shot samples read 0 or
   jitter.  One probe run of [f] sets how many back-to-back calls a
   timed sample needs to span [floor] seconds; callers time every
   configuration they compare with the same count, so loop overhead
   cancels in the ratios. *)
let calibrate ~floor f =
  let _, t1 = time f in
  if t1 >= floor then 1
  else
    max 1 (min 1000 (int_of_float (Float.ceil (floor /. Float.max t1 1e-7))))

(* Best per-call time of [iters] back-to-back calls of [f]. *)
let per_call ~reps ~iters f =
  warm_best ~reps (fun () ->
      for _ = 1 to iters do
        ignore (f ())
      done)
  /. float_of_int iters

(* Times below the clock's resolution read as 0 at smoke scale; clamp
   both sides to one tick so ratios (and the JSON) stay finite. *)
let ratio num den =
  let tick = 1e-7 in
  Float.max num tick /. Float.max den tick

let geomean = function
  | [] -> 1.
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float (List.length xs))

(* Nearest-rank percentile over an unsorted sample. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    List.nth sorted (max 0 (min (n - 1) rank))

(* ------------------------------------------------------------------ *)
(* Scoped switches                                                     *)
(* ------------------------------------------------------------------ *)

let with_ref r v f =
  let saved = !r in
  r := v;
  Fun.protect ~finally:(fun () -> r := saved) f
