(* Child processes: petitd daemons and set-up probes.  Every child is
   remembered until reaped, so an early exit still kills and waits for
   it. *)

module Client = Serve.Client
module Protocol = Serve.Protocol

let live : int list ref = ref []

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Wait for a remembered child; its exit status. *)
let reap pid =
  let status = waitpid_retry pid in
  live := List.filter (( <> ) pid) !live;
  status

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn ?stdout prog args =
  let null = Lazy.force devnull in
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      null
      (Option.value stdout ~default:null)
      null
  in
  live := pid :: !live;
  pid

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
    live := List.filter (( <> ) pid) !live;
    true

(* Reap within 10 s, or kill. *)
let wait_or_kill pid =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    if exited pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid)
    end
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* VmHWM of a live process, in MiB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* petitd                                                              *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; path : string }

let addr d = Protocol.Unix_path d.path

let connect d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX d.path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let request d req =
  match Client.connect (addr d) with
  | Error e -> Error e
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.request c req)

(* Spawn a one-domain petitd on [path] and return it once it answers
   [health]. *)
let start_daemon ~exe ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let t0 = Unix.gettimeofday () in
  let pid = spawn exe [ "--socket"; path; "--domains"; "1" ] in
  let d = { pid; path } in
  let rec ready () =
    match request d Protocol.Health with
    | Ok (Protocol.Result _) -> d
    | Ok (Protocol.Error_ _) | Error _ ->
      if exited pid then failwith (exe ^ " exited before answering health")
      else if Unix.gettimeofday () -. t0 > 30. then
        failwith (exe ^ " did not answer health within 30 s")
      else begin
        Unix.sleepf 0.0002;
        ready ()
      end
  in
  ready ()

let stop_daemon d =
  ignore (request d Protocol.Shutdown);
  wait_or_kill d.pid;
  try Unix.unlink d.path with Unix.Unix_error _ -> ()

(* Spawn [exe args], and return its first line with the time it
   arrived; then wait for it to exit. *)
let first_line exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:w exe args in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try Some (input_line ic) with End_of_file -> None in
  let t = Unix.gettimeofday () in
  close_in ic;
  wait_or_kill pid;
  match line with
  | Some l -> (l, t)
  | None -> failwith (exe ^ " exited without reporting ready")
