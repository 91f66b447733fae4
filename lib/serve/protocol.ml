(* Length-prefixed JSON frames and the request/response vocabulary of
   petitd.  Encoding and decoding both go through Json, so the client
   library, the server and the tests share one formatting path. *)

type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
      Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> Error (Printf.sprintf "bad port in %S" s))
  | _ -> if s = "" then Error "empty address" else Ok (Unix_path s)

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type budget_spec = {
  b_fuel : int option;
  b_splinters : int option;
  b_disjuncts : int option;
  b_deadline_ms : float option;
}

let no_budget =
  { b_fuel = None; b_splinters = None; b_disjuncts = None; b_deadline_ms = None }

(* The request may ask for less than the quota, never for more; an
   absent dimension means "whatever the quota allows". *)
let clamp_budget spec (quota : Omega.Budget.limits) : Omega.Budget.limits =
  let dim req q = match req with Some r -> min r q | None -> q in
  {
    Omega.Budget.fuel = dim spec.b_fuel quota.Omega.Budget.fuel;
    splinters = dim spec.b_splinters quota.Omega.Budget.splinters;
    disjuncts = dim spec.b_disjuncts quota.Omega.Budget.disjuncts;
    deadline_ms =
      (match (spec.b_deadline_ms, quota.Omega.Budget.deadline_ms) with
      | Some r, Some q -> Some (Float.min r q)
      | Some r, None -> Some r
      | None, q -> q);
  }

type calc_op =
  | Sat of string
  | Implies of string * string
  | Project of {
      mode : [ `Exact | `Dark | `Real ];
      onto : string list;
      problem : string;
    }
  | Gist of { problem : string; given : string }
  | Optimize of { dir : [ `Min | `Max ]; var : string; problem : string }

type request =
  | Analyze of {
      program : string;
      in_bounds : bool;
      budget : budget_spec;
      deadline_ms : float option;
    }
  | Parallelize of {
      program : string;
      in_bounds : bool;
      budget : budget_spec;
      deadline_ms : float option;
    }
  | Omega_calc of {
      op : calc_op;
      budget : budget_spec;
      deadline_ms : float option;
    }
  | Stats
  | Health
  | Shutdown

let budget_json b =
  let f k v = Option.map (fun x -> (k, Json.Int x)) v in
  let fields =
    List.filter_map Fun.id
      [
        f "fuel" b.b_fuel;
        f "splinters" b.b_splinters;
        f "disjuncts" b.b_disjuncts;
        Option.map (fun x -> ("deadline_ms", Json.Float x)) b.b_deadline_ms;
      ]
  in
  if fields = [] then None else Some (Json.Obj fields)

let calc_op_json = function
  | Sat p -> Json.Obj [ ("calc", Json.Str "sat"); ("problem", Json.Str p) ]
  | Implies (p, q) ->
    Json.Obj
      [ ("calc", Json.Str "implies"); ("p", Json.Str p); ("q", Json.Str q) ]
  | Project { mode; onto; problem } ->
    Json.Obj
      [
        ( "calc",
          Json.Str
            (match mode with
            | `Exact -> "project"
            | `Dark -> "dark"
            | `Real -> "real") );
        ("onto", Json.List (List.map (fun v -> Json.Str v) onto));
        ("problem", Json.Str problem);
      ]
  | Gist { problem; given } ->
    Json.Obj
      [
        ("calc", Json.Str "gist");
        ("problem", Json.Str problem);
        ("given", Json.Str given);
      ]
  | Optimize { dir; var; problem } ->
    Json.Obj
      [
        ("calc", Json.Str (match dir with `Min -> "min" | `Max -> "max"));
        ("var", Json.Str var);
        ("problem", Json.Str problem);
      ]

let encode_request ~id req =
  let base op rest = Json.Obj (("id", Json.Int id) :: ("op", Json.Str op) :: rest) in
  let with_budget b rest =
    match budget_json b with Some j -> rest @ [ ("budget", j) ] | None -> rest
  in
  let with_deadline d rest =
    match d with
    | Some ms -> rest @ [ ("deadline_ms", Json.Float ms) ]
    | None -> rest
  in
  match req with
  | Analyze { program; in_bounds; budget; deadline_ms } ->
    base "analyze"
      (with_deadline deadline_ms
         (with_budget budget
            [ ("program", Json.Str program); ("in_bounds", Json.Bool in_bounds) ]))
  | Parallelize { program; in_bounds; budget; deadline_ms } ->
    base "parallelize"
      (with_deadline deadline_ms
         (with_budget budget
            [ ("program", Json.Str program); ("in_bounds", Json.Bool in_bounds) ]))
  | Omega_calc { op; budget; deadline_ms } ->
    base "omega_calc"
      (with_deadline deadline_ms
         (with_budget budget [ ("query", calc_op_json op) ]))
  | Stats -> base "stats" []
  | Health -> base "health" []
  | Shutdown -> base "shutdown" []

let ( let* ) = Result.bind

let field_str name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S is not a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let field_bool ?(default = false) name j =
  match Json.member name j with
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S is not a bool" name)
  | None -> Ok default

let decode_budget j =
  match Json.member "budget" j with
  | None -> Ok no_budget
  | Some b ->
    let int_field name =
      match Json.member name b with
      | Some (Json.Int n) when n > 0 -> Ok (Some n)
      | Some _ -> Error (Printf.sprintf "budget field %S must be a positive integer" name)
      | None -> Ok None
    in
    let* b_fuel = int_field "fuel" in
    let* b_splinters = int_field "splinters" in
    let* b_disjuncts = int_field "disjuncts" in
    let* b_deadline_ms =
      match Json.member "deadline_ms" b with
      | Some v -> (
        match Json.to_float_opt v with
        | Some f when f > 0. -> Ok (Some f)
        | _ -> Error "budget field \"deadline_ms\" must be a positive number")
      | None -> Ok None
    in
    Ok { b_fuel; b_splinters; b_disjuncts; b_deadline_ms }

(* The whole-request wall deadline, distinct from the per-query budget
   deadline inside [budget]. *)
let decode_deadline j =
  match Json.member "deadline_ms" j with
  | None -> Ok None
  | Some v -> (
    match Json.to_float_opt v with
    | Some f when f > 0. -> Ok (Some f)
    | _ -> Error "field \"deadline_ms\" must be a positive number")

let decode_calc_op j =
  match Json.member "query" j with
  | None -> Error "missing field \"query\""
  | Some q -> (
    let* calc = field_str "calc" q in
    match calc with
    | "sat" ->
      let* p = field_str "problem" q in
      Ok (Sat p)
    | "implies" ->
      let* p = field_str "p" q in
      let* qq = field_str "q" q in
      Ok (Implies (p, qq))
    | "project" | "dark" | "real" ->
      let mode =
        match calc with
        | "project" -> `Exact
        | "dark" -> `Dark
        | _ -> `Real
      in
      let* problem = field_str "problem" q in
      let* onto =
        match Json.member "onto" q with
        | Some (Json.List xs) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | Json.Str s :: rest -> go (s :: acc) rest
            | _ -> Error "field \"onto\" must be a list of strings"
          in
          go [] xs
        | _ -> Error "missing field \"onto\""
      in
      Ok (Project { mode; onto; problem })
    | "gist" ->
      let* problem = field_str "problem" q in
      let* given = field_str "given" q in
      Ok (Gist { problem; given })
    | "min" | "max" ->
      let* var = field_str "var" q in
      let* problem = field_str "problem" q in
      Ok (Optimize { dir = (if calc = "min" then `Min else `Max); var; problem })
    | other -> Error (Printf.sprintf "unknown calc op %S" other))

let decode_request j =
  let res =
    let* id =
      match Json.member "id" j with
      | Some (Json.Int n) -> Ok n
      | Some _ -> Error "field \"id\" must be an integer"
      | None -> Error "missing field \"id\""
    in
    let* op = field_str "op" j in
    let* r =
      match op with
      | "analyze" | "parallelize" ->
        let* program = field_str "program" j in
        let* in_bounds = field_bool "in_bounds" j in
        let* budget = decode_budget j in
        let* deadline_ms = decode_deadline j in
        Ok
          (if op = "analyze" then
             Analyze { program; in_bounds; budget; deadline_ms }
           else Parallelize { program; in_bounds; budget; deadline_ms })
      | "omega_calc" ->
        let* op = decode_calc_op j in
        let* budget = decode_budget j in
        let* deadline_ms = decode_deadline j in
        Ok (Omega_calc { op; budget; deadline_ms })
      | "stats" -> Ok Stats
      | "health" -> Ok Health
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "unknown op %S" other)
    in
    Ok (id, r)
  in
  res

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type memo_report = {
  mr_req_hits : int;
  mr_req_misses : int;
  mr_hits : int;
  mr_misses : int;
  mr_size : int;
  mr_capacity : int;
  mr_evictions : int;
  mr_vec_hits : int;
  mr_vec_misses : int;
}

type error_code =
  | Parse_error
  | Semantic_error
  | Bad_request
  | Frame_too_large
  | Gave_up
  | Overloaded
  | Server_error

let error_code_to_string = function
  | Parse_error -> "parse_error"
  | Semantic_error -> "semantic_error"
  | Bad_request -> "bad_request"
  | Frame_too_large -> "frame_too_large"
  | Gave_up -> "gave_up"
  | Overloaded -> "overloaded"
  | Server_error -> "server_error"

let error_code_of_string = function
  | "parse_error" -> Some Parse_error
  | "semantic_error" -> Some Semantic_error
  | "bad_request" -> Some Bad_request
  | "frame_too_large" -> Some Frame_too_large
  | "gave_up" -> Some Gave_up
  | "overloaded" -> Some Overloaded
  | "server_error" -> Some Server_error
  | _ -> None

type response =
  | Result of {
      id : int;
      payload : Json.t;
      memo : memo_report option;
      governance : Json.t option;
    }
  | Error_ of {
      id : int;
      code : error_code;
      message : string;
      retry_after_ms : float option;
    }

let memo_json m =
  Json.Obj
    [
      ("req_hits", Json.Int m.mr_req_hits);
      ("req_misses", Json.Int m.mr_req_misses);
      ("hits", Json.Int m.mr_hits);
      ("misses", Json.Int m.mr_misses);
      ("size", Json.Int m.mr_size);
      ("capacity", Json.Int m.mr_capacity);
      ("evictions", Json.Int m.mr_evictions);
      ("vec_hits", Json.Int m.mr_vec_hits);
      ("vec_misses", Json.Int m.mr_vec_misses);
    ]

let encode_response = function
  | Result { id; payload; memo; governance } ->
    Json.Obj
      ([
         ("id", Json.Int id);
         ("ok", Json.Bool true);
         ("result", payload);
       ]
      @ (match memo with Some m -> [ ("memo", memo_json m) ] | None -> [])
      @
      match governance with
      | Some g -> [ ("governance", g) ]
      | None -> [])
  | Error_ { id; code; message; retry_after_ms } ->
    Json.Obj
      [
        ("id", Json.Int id);
        ("ok", Json.Bool false);
        ( "error",
          Json.Obj
            ([
               ("code", Json.Str (error_code_to_string code));
               ("message", Json.Str message);
             ]
            @
            match retry_after_ms with
            | Some ms -> [ ("retry_after_ms", Json.Float ms) ]
            | None -> []) );
      ]

let decode_memo j =
  let i name = Option.bind (Json.member name j) Json.to_int_opt in
  match (i "req_hits", i "req_misses", i "hits", i "misses", i "size",
         i "capacity", i "evictions", i "vec_hits", i "vec_misses")
  with
  | ( Some mr_req_hits,
      Some mr_req_misses,
      Some mr_hits,
      Some mr_misses,
      Some mr_size,
      Some mr_capacity,
      Some mr_evictions,
      Some mr_vec_hits,
      Some mr_vec_misses ) ->
    Some
      {
        mr_req_hits;
        mr_req_misses;
        mr_hits;
        mr_misses;
        mr_size;
        mr_capacity;
        mr_evictions;
        mr_vec_hits;
        mr_vec_misses;
      }
  | _ -> None

let decode_response j =
  let id = match Json.member "id" j with Some (Json.Int n) -> n | _ -> 0 in
  match Json.member "ok" j with
  | Some (Json.Bool true) -> (
    match Json.member "result" j with
    | Some payload ->
      Ok
        (Result
           {
             id;
             payload;
             memo = Option.bind (Json.member "memo" j) decode_memo;
             governance = Json.member "governance" j;
           })
    | None -> Error "ok response without \"result\"")
  | Some (Json.Bool false) -> (
    match Json.member "error" j with
    | Some e -> (
      let* code = field_str "code" e in
      let* message = field_str "message" e in
      let retry_after_ms =
        Option.bind (Json.member "retry_after_ms" e) Json.to_float_opt
      in
      match error_code_of_string code with
      | Some code -> Ok (Error_ { id; code; message; retry_after_ms })
      | None -> Error (Printf.sprintf "unknown error code %S" code))
    | None -> Error "error response without \"error\"")
  | _ -> Error "response without boolean \"ok\""

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let default_max_frame = 16 * 1024 * 1024

(* Absolute ceiling on a length prefix we are willing to drain to keep
   the stream in sync; anything larger poisons the connection. *)
let drain_cap = 256 * 1024 * 1024

(* Deadline-guarded I/O.  [deadline] is an absolute [Unix.gettimeofday]
   instant by which the whole frame must have moved; every read/write is
   preceded by a [select] bounded by the remaining time, so a peer that
   trickles one byte per interval cannot hold the call open forever.
   Timeouts surface as [Frame_timeout] (reads, mapped to [Timed_out]) or
   [Unix.ETIMEDOUT] (writes, mapped by callers alongside EPIPE). *)

exception Frame_timeout

let await dir fd deadline =
  match deadline with
  | None -> ()
  | Some d ->
    let rec go () =
      let remaining = d -. Unix.gettimeofday () in
      if remaining <= 0. then raise Frame_timeout
      else
        let r, w =
          match dir with `Read -> ([ fd ], []) | `Write -> ([], [ fd ])
        in
        match Unix.select r w [] remaining with
        | [], [], _ -> go ()
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()

let rec write_all ?deadline fd buf off len =
  if len > 0 then begin
    (match await `Write fd deadline with
    | () -> ()
    | exception Frame_timeout ->
      raise (Unix.Unix_error (Unix.ETIMEDOUT, "write_frame", "")));
    let n = Unix.write fd buf off len in
    write_all ?deadline fd buf (off + n) (len - n)
  end

let write_frame ?deadline fd payload =
  let len = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set hdr 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set hdr 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set hdr 3 (Char.chr (len land 0xFF));
  write_all ?deadline fd hdr 0 4;
  write_all ?deadline fd (Bytes.of_string payload) 0 len

type frame_error =
  | Closed
  | Truncated
  | Oversized of int
  | Poisoned of int
  | Timed_out

(* Read exactly [len] bytes; [`Eof k] reports how many arrived first. *)
let read_exactly ?deadline fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then `Ok buf
    else begin
      await `Read fd deadline;
      match Unix.read fd buf off (len - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
    end
  in
  go 0

let discard ?deadline fd len =
  let chunk = Bytes.create 65536 in
  let rec go remaining =
    if remaining = 0 then `Ok
    else begin
      await `Read fd deadline;
      match Unix.read fd chunk 0 (min remaining 65536) with
      | 0 -> `Eof
      | n -> go (remaining - n)
    end
  in
  go len

let read_frame ?deadline ~max fd =
  try
    match read_exactly ?deadline fd 4 with
    | `Eof 0 -> Error Closed
    | `Eof _ -> Error Truncated
    | `Ok hdr ->
      let b i = Char.code (Bytes.get hdr i) in
      let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if len > max then
        if len > drain_cap then Error (Poisoned len)
        else begin
          match discard ?deadline fd len with
          | `Ok -> Error (Oversized len)
          | `Eof -> Error Truncated
        end
      else begin
        match read_exactly ?deadline fd len with
        | `Ok payload -> Ok (Bytes.to_string payload)
        | `Eof _ -> Error Truncated
      end
  with Frame_timeout -> Error Timed_out
