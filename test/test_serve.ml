(* The serving subsystem: JSON round-trips, wire-protocol framing,
   server survival under malformed input, concurrent-client determinism
   and the thread safety of the shared verdict cache.

   Server tests run a real petitd core on a Unix socket under /tmp and
   talk to it with the typed client; every test that wounds a
   connection (oversized frame, truncated frame) then proves the server
   still answers — failures must be contained to the connection that
   caused them. *)

open Serve

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let json_roundtrip j =
  match Json.parse (Json.to_string j) with
  | Ok j' -> Json.equal j j'
  | Error _ -> false

let test_json_basic () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float (-1e300);
      Json.Float 3.0;
      Json.Str "";
      Json.Str "a\"b\\c\nd\te\x01f";
      Json.Str "héllo – ωmega";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Null; Json.Str "x" ]);
          ("b", Json.Obj [ ("nested", Json.Bool false) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      check bool_t ("roundtrip " ^ Json.to_string j) true (json_roundtrip j))
    samples;
  (* pretty output parses back to the same value too *)
  let j =
    Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Float 2.5 ]) ]
  in
  (match Json.parse (Json.pretty j) with
  | Ok j' -> check bool_t "pretty roundtrip" true (Json.equal j j')
  | Error e -> Alcotest.failf "pretty did not parse: %s" e);
  (* escapes decode *)
  (match Json.parse {|"Aé😀\n"|} with
  | Ok (Json.Str s) -> check string_t "unicode escapes" "Aé😀\n" s
  | _ -> Alcotest.fail "unicode escape parse failed");
  (* garbage is an error, not an exception *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed garbage %S" s)
    [ ""; "{"; "[1,"; "tru"; "1 2"; "\"unterminated"; "{\"a\":}"; "nan" ]

let json_gen : Json.t QCheck.arbitrary =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) (float_bound_inclusive 1e15);
        map (fun s -> Json.Str s) string_printable;
      ]
  in
  let rec sized n =
    if n <= 0 then scalar
    else
      frequency
        [
          (2, scalar);
          (1, map (fun xs -> Json.List xs) (list_size (0 -- 4) (sized (n / 2))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (0 -- 4)
                 (pair string_printable (sized (n / 2)))) );
        ]
  in
  QCheck.make ~print:Json.to_string (sized 4)

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"serialize/parse is the identity" ~count:500
    json_gen json_roundtrip

let qcheck_parse_total =
  QCheck.Test.make ~name:"parse never raises on random bytes" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s ->
      match Json.parse s with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                                *)
(* ------------------------------------------------------------------ *)

let some_budget =
  {
    Protocol.b_fuel = Some 1000;
    b_splinters = None;
    b_disjuncts = Some 64;
    b_deadline_ms = Some 12.5;
  }

let all_requests : Protocol.request list =
  [
    Protocol.Analyze
      { program = "for i := 1 to n do\na(i) := 0\nendfor";
        in_bounds = true; budget = Protocol.no_budget; deadline_ms = None };
    Protocol.Analyze
      { program = ""; in_bounds = false; budget = some_budget;
        deadline_ms = Some 1500. };
    Protocol.Parallelize
      { program = "x := 1"; in_bounds = false; budget = some_budget;
        deadline_ms = Some 0.25 };
    Protocol.Omega_calc
      { op = Protocol.Sat "0 <= x <= 5"; budget = Protocol.no_budget;
        deadline_ms = None };
    Protocol.Omega_calc
      { op = Protocol.Implies ("x >= 1", "x >= 0"); budget = some_budget;
        deadline_ms = Some 100. };
    Protocol.Omega_calc
      {
        op =
          Protocol.Project
            { mode = `Exact; onto = [ "x"; "y" ]; problem = "x = 2*y" };
        budget = Protocol.no_budget;
        deadline_ms = None;
      };
    Protocol.Omega_calc
      {
        op = Protocol.Project { mode = `Dark; onto = []; problem = "x = 1" };
        budget = Protocol.no_budget;
        deadline_ms = None;
      };
    Protocol.Omega_calc
      {
        op = Protocol.Project { mode = `Real; onto = [ "z" ]; problem = "z < 9" };
        budget = Protocol.no_budget;
        deadline_ms = None;
      };
    Protocol.Omega_calc
      {
        op = Protocol.Gist { problem = "x >= 0 and x <= 5"; given = "x >= 3" };
        budget = Protocol.no_budget;
        deadline_ms = None;
      };
    Protocol.Omega_calc
      {
        op = Protocol.Optimize { dir = `Min; var = "x"; problem = "x >= 7" };
        budget = Protocol.no_budget;
        deadline_ms = None;
      };
    Protocol.Omega_calc
      {
        op = Protocol.Optimize { dir = `Max; var = "x"; problem = "x <= -3" };
        budget = some_budget;
        deadline_ms = None;
      };
    Protocol.Stats;
    Protocol.Health;
    Protocol.Shutdown;
  ]

let memo_sample =
  {
    Protocol.mr_req_hits = 3;
    mr_req_misses = 1;
    mr_hits = 10;
    mr_misses = 7;
    mr_size = 7;
    mr_capacity = 64;
    mr_evictions = 0;
    mr_vec_hits = 5;
    mr_vec_misses = 2;
  }

let all_responses : Protocol.response list =
  [
    Protocol.Result
      { id = 1; payload = Json.Obj [ ("sat", Json.Bool true) ];
        memo = None; governance = None };
    Protocol.Result
      {
        id = 42;
        payload = Json.List [ Json.Int 1; Json.Str "x" ];
        memo = Some memo_sample;
        governance = Some (Json.Obj [ ("queries", Json.Int 9) ]);
      };
    Protocol.Error_
      { id = 7; code = Protocol.Parse_error; message = "line 1: nope";
        retry_after_ms = None };
    Protocol.Error_
      { id = 0; code = Protocol.Frame_too_large; message = "too big";
        retry_after_ms = None };
    Protocol.Error_
      { id = 3; code = Protocol.Gave_up; message = "fuel";
        retry_after_ms = None };
    Protocol.Error_
      { id = 3; code = Protocol.Bad_request; message = "?";
        retry_after_ms = None };
    Protocol.Error_
      { id = 3; code = Protocol.Semantic_error; message = "s";
        retry_after_ms = None };
    Protocol.Error_
      { id = 3; code = Protocol.Server_error; message = "e";
        retry_after_ms = None };
    Protocol.Error_
      { id = 0; code = Protocol.Overloaded; message = "connection limit";
        retry_after_ms = Some 100. };
    Protocol.Error_
      { id = 9; code = Protocol.Overloaded; message = "in-flight limit";
        retry_after_ms = Some 62.5 };
  ]

(* Round-trips are checked on the canonical encoded string: decode of
   the encoding must re-encode to the same bytes. *)
let test_protocol_roundtrip () =
  List.iteri
    (fun i req ->
      let j = Protocol.encode_request ~id:(i + 1) req in
      let s = Json.to_string j in
      match Protocol.decode_request j with
      | Error e -> Alcotest.failf "request %d did not decode: %s" i e
      | Ok (id, req') ->
        check int_t "id" (i + 1) id;
        check string_t
          (Printf.sprintf "request %d" i)
          s
          (Json.to_string (Protocol.encode_request ~id req')))
    all_requests;
  List.iteri
    (fun i resp ->
      let j = Protocol.encode_response resp in
      let s = Json.to_string j in
      match Protocol.decode_response j with
      | Error e -> Alcotest.failf "response %d did not decode: %s" i e
      | Ok resp' ->
        check string_t
          (Printf.sprintf "response %d" i)
          s
          (Json.to_string (Protocol.encode_response resp')))
    all_responses

let test_decode_rejects () =
  List.iter
    (fun j ->
      match Protocol.decode_request j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded bad request %s" (Json.to_string j))
    [
      Json.Null;
      Json.Obj [];
      Json.Obj [ ("id", Json.Int 1) ];
      Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "frobnicate") ];
      Json.Obj [ ("id", Json.Str "one"); ("op", Json.Str "stats") ];
      Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "analyze") ];
    ]

(* ------------------------------------------------------------------ *)
(* A live server on a Unix socket                                      *)
(* ------------------------------------------------------------------ *)

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "/tmp/petitd-test-%d-%d.sock" (Unix.getpid ()) !n

(* Tests default to one worker domain (the deterministic baseline);
   the multi-domain stress opts in with [domains], and the overload
   tests pin their own caps and deadlines. *)
let with_server ?max_frame ?(domains = 1) ?max_connections ?max_inflight
    ?read_timeout_ms ?drain_ms f =
  let path = fresh_path () in
  let config =
    let base = Server.default_config (Protocol.Unix_path path) in
    let base =
      match max_frame with
      | None -> base
      | Some m -> { base with Server.c_max_frame = m }
    in
    let base =
      match max_connections with
      | None -> base
      | Some n -> { base with Server.c_max_connections = n }
    in
    let base =
      match max_inflight with
      | None -> base
      | Some _ as v -> { base with Server.c_max_inflight = v }
    in
    let base =
      match read_timeout_ms with
      | None -> base
      | Some _ as v -> { base with Server.c_read_timeout_ms = v }
    in
    let base =
      match drain_ms with
      | None -> base
      | Some ms -> { base with Server.c_drain_ms = ms }
    in
    { base with Server.c_domains = domains }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.wait server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f path)

let connect_exn path =
  match Client.connect (Protocol.Unix_path path) with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let request_exn c req =
  match Client.request c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "request: %s" e

let expect_error code resp =
  match resp with
  | Protocol.Error_ e ->
    check string_t "error code"
      (Protocol.error_code_to_string code)
      (Protocol.error_code_to_string e.code)
  | Protocol.Result _ -> Alcotest.fail "expected an error response"

let test_server_calc () =
  with_server @@ fun path ->
  let c = connect_exn path in
  (match
     request_exn c
       (Protocol.Omega_calc
          { op = Protocol.Sat "0 <= x <= 5 and 2*x = 3";
            budget = Protocol.no_budget; deadline_ms = None })
   with
  | Protocol.Result { payload; _ } ->
    check bool_t "unsat"
      true
      (Json.equal payload (Json.Obj [ ("sat", Json.Bool false) ]))
  | Protocol.Error_ e -> Alcotest.failf "calc failed: %s" e.message);
  (* an unparsable problem is an error response, not a dead server *)
  expect_error Protocol.Parse_error
    (request_exn c
       (Protocol.Omega_calc
          { op = Protocol.Sat "0 <= <="; budget = Protocol.no_budget;
            deadline_ms = None }));
  (* and the connection still answers *)
  (match
     request_exn c
       (Protocol.Omega_calc
          { op = Protocol.Implies ("x >= 1", "x >= 0");
            budget = Protocol.no_budget; deadline_ms = None })
   with
  | Protocol.Result { payload; _ } ->
    check bool_t "implies" true
      (Json.equal payload (Json.Obj [ ("implies", Json.Bool true) ]))
  | Protocol.Error_ e -> Alcotest.failf "implies failed: %s" e.message);
  Client.close c

let test_server_malformed_frame () =
  with_server @@ fun path ->
  let c = connect_exn path in
  (* raw socket next to the typed client: a frame of garbage bytes *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Protocol.write_frame fd "this is not json {";
  (match Protocol.read_frame ~max:Protocol.default_max_frame fd with
  | Ok payload -> (
    match Json.parse payload with
    | Ok j -> (
      match Protocol.decode_response j with
      | Ok resp -> expect_error Protocol.Bad_request resp
      | Error e -> Alcotest.failf "undecodable error response: %s" e)
    | Error e -> Alcotest.failf "error response is not JSON: %s" e)
  | Error _ -> Alcotest.fail "no response to the malformed frame");
  (* a valid request on the same wounded connection still works *)
  Protocol.write_frame fd
    (Json.to_string (Protocol.encode_request ~id:9 Protocol.Stats));
  (match Protocol.read_frame ~max:Protocol.default_max_frame fd with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "connection died after a malformed frame");
  Unix.close fd;
  (* and so do other clients *)
  (match request_exn c Protocol.Stats with
  | Protocol.Result _ -> ()
  | Protocol.Error_ _ -> Alcotest.fail "stats failed after malformed frame");
  Client.close c

let test_server_oversized_frame () =
  with_server ~max_frame:256 @@ fun path ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Protocol.write_frame fd (String.make 1024 'x');
  (match Protocol.read_frame ~max:Protocol.default_max_frame fd with
  | Ok payload -> (
    match Json.parse payload with
    | Ok j -> (
      match Protocol.decode_response j with
      | Ok resp -> expect_error Protocol.Frame_too_large resp
      | Error e -> Alcotest.failf "undecodable error response: %s" e)
    | Error e -> Alcotest.failf "error response is not JSON: %s" e)
  | Error _ -> Alcotest.fail "no response to the oversized frame");
  (* the oversized payload was drained: the stream is still in sync *)
  Protocol.write_frame fd
    (Json.to_string (Protocol.encode_request ~id:2 Protocol.Stats));
  (match Protocol.read_frame ~max:Protocol.default_max_frame fd with
  | Ok payload -> (
    match Json.parse payload with
    | Ok j -> (
      match Protocol.decode_response j with
      | Ok (Protocol.Result { id; _ }) -> check int_t "id" 2 id
      | Ok (Protocol.Error_ e) ->
        Alcotest.failf "stats errored: %s" e.message
      | Error e -> Alcotest.failf "undecodable response: %s" e)
    | Error e -> Alcotest.failf "response is not JSON: %s" e)
  | Error _ -> Alcotest.fail "connection died after an oversized frame");
  Unix.close fd

let test_server_truncated_frame () =
  with_server @@ fun path ->
  (* announce 100 bytes, send 10, hang up mid-frame *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let header = Bytes.create 4 in
  Bytes.set_uint8 header 0 0;
  Bytes.set_uint8 header 1 0;
  Bytes.set_uint8 header 2 0;
  Bytes.set_uint8 header 3 100;
  ignore (Unix.write fd header 0 4);
  ignore (Unix.write_substring fd "0123456789" 0 10);
  Unix.close fd;
  (* the server dropped that session only: new connections answer *)
  let c = connect_exn path in
  (match request_exn c Protocol.Stats with
  | Protocol.Result _ -> ()
  | Protocol.Error_ _ -> Alcotest.fail "stats failed after truncated frame");
  Client.close c

(* ------------------------------------------------------------------ *)
(* Concurrent clients: same corpus, 1 vs 8 clients, verdicts identical *)
(* ------------------------------------------------------------------ *)

let determinism_programs =
  [
    "example1"; "example2"; "example3"; "example4"; "example5"; "example9";
    "temp_reuse"; "cholsky";
  ]
  |> List.filter_map (fun n ->
         match Corpus.find n with
         | src -> Some (n, src)
         | exception Invalid_argument _ -> None)

(* Fresh in-process expectations, through the very payload builders the
   daemon uses. *)
let expected_payloads () =
  Depend.Analyses.Memo.reset ();
  List.map
    (fun (name, src) ->
      let prog = Lang.Sema.analyze (Lang.Parser.parse_string src) in
      ( name,
        Json.to_string (Service.analyze_payload ~in_bounds:false prog),
        Json.to_string (Service.parallelize_payload ~in_bounds:false prog) ))
    determinism_programs

let run_clients path ~clients ~programs =
  (* Each client replays the whole corpus; results land in a per-client
     slot, compared after the joins. *)
  let results =
    Array.make clients ([] : (string * string * string) list)
  in
  let errors = Array.make clients "" in
  let worker k () =
    match Client.connect (Protocol.Unix_path path) with
    | Error e -> errors.(k) <- e
    | Ok c ->
      let rs =
        List.map
          (fun (name, src) ->
            let payload req =
              match Client.request c req with
              | Error e -> Printf.sprintf "<transport error: %s>" e
              | Ok resp -> (
                match Client.result_payload resp with
                | Ok (p, _) -> Json.to_string p
                | Error e -> Printf.sprintf "<error: %s>" e)
            in
            ( name,
              payload
                (Protocol.Analyze
                   { program = src; in_bounds = false;
                     budget = Protocol.no_budget; deadline_ms = None }),
              payload
                (Protocol.Parallelize
                   { program = src; in_bounds = false;
                     budget = Protocol.no_budget; deadline_ms = None }) ))
          programs
      in
      Client.close c;
      results.(k) <- rs
  in
  let threads =
    List.init clients (fun k -> Thread.create (worker k) ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun k e -> if e <> "" then Alcotest.failf "client %d: %s" k e)
    errors;
  Array.to_list results

let check_against expected client (name, an, par) =
  let _, ean, epar = List.find (fun (n, _, _) -> n = name) expected in
  check string_t (Printf.sprintf "%s analyze (client %d)" name client) ean an;
  check string_t
    (Printf.sprintf "%s parallelize (client %d)" name client)
    epar par

let test_concurrent_determinism () =
  let expected = expected_payloads () in
  let check_result = check_against expected in
  (* one client, cold daemon *)
  with_server (fun path ->
      List.iteri
        (fun _ rs -> List.iter (check_result 0) rs)
        (run_clients path ~clients:1 ~programs:determinism_programs));
  (* eight clients hammering a fresh daemon concurrently *)
  with_server (fun path ->
      let per_client =
        run_clients path ~clients:8 ~programs:determinism_programs
      in
      List.iteri
        (fun k rs -> List.iter (check_result k) rs)
        per_client;
      (* the shared cache was actually shared: lifetime hits observed *)
      let c = connect_exn path in
      (match request_exn c Protocol.Stats with
      | Protocol.Result { payload; _ } ->
        let hits =
          match Json.member "memo" payload with
          | Some m ->
            Option.value ~default:0
              (Option.bind (Json.member "hits" m) Json.to_int_opt)
          | None -> 0
        in
        check bool_t "memo hits > 0 across clients" true (hits > 0)
      | Protocol.Error_ _ -> Alcotest.fail "stats failed");
      Client.close c)

(* The same 8-client corpus replay against a daemon whose solver work is
   sharded over two worker domains.  Every payload must stay
   byte-identical to the in-process expectation (and hence to the
   single-domain daemon's, pinned to the same expectation above):
   worker-domain Var slots must never leak into responses, and the
   verdict cache is shared across both domains. *)
let test_concurrent_determinism_domains () =
  let expected = expected_payloads () in
  with_server ~domains:2 (fun path ->
      let per_client =
        run_clients path ~clients:8 ~programs:determinism_programs
      in
      List.iteri
        (fun k rs -> List.iter (check_against expected k) rs)
        per_client;
      (* the cache was shared across sessions and worker domains *)
      let c = connect_exn path in
      (match request_exn c Protocol.Stats with
      | Protocol.Result { payload; _ } ->
        let hits =
          match Json.member "memo" payload with
          | Some m ->
            Option.value ~default:0
              (Option.bind (Json.member "hits" m) Json.to_int_opt)
          | None -> 0
        in
        check bool_t "memo hits > 0 across domains" true (hits > 0)
      | Protocol.Error_ _ -> Alcotest.fail "stats failed");
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Overload control, deadlines, drain, retry policy                    *)
(* ------------------------------------------------------------------ *)

let health_int payload path =
  let rec go j = function
    | [] -> Option.value ~default:(-1) (Json.to_int_opt j)
    | k :: rest -> (
      match Json.member k j with Some j' -> go j' rest | None -> -1)
  in
  go payload path

let test_health () =
  with_server @@ fun path ->
  let c = connect_exn path in
  (match request_exn c Protocol.Health with
  | Protocol.Result { payload; _ } ->
    check bool_t "in_flight present" true
      (health_int payload [ "in_flight" ] >= 0);
    check bool_t "shed counters present" true
      (health_int payload [ "shed"; "requests" ] >= 0
      && health_int payload [ "shed"; "connections" ] >= 0);
    check bool_t "reaped present" true (health_int payload [ "reaped" ] >= 0);
    check bool_t "one connection open" true
      (health_int payload [ "connections"; "open" ] = 1)
  | Protocol.Error_ e -> Alcotest.failf "health failed: %s" e.message);
  Client.close c

(* A request whose wall deadline has already passed is refused with
   [Gave_up] without burning a worker; the same request with a generous
   deadline succeeds on the same connection. *)
let test_request_deadline () =
  with_server @@ fun path ->
  let c = connect_exn path in
  let analyze deadline_ms =
    request_exn c
      (Protocol.Analyze
         { program = Corpus.find "example1"; in_bounds = false;
           budget = Protocol.no_budget; deadline_ms })
  in
  (match analyze (Some 0.001) with
  | Protocol.Error_ e ->
    check string_t "refused as gave_up"
      (Protocol.error_code_to_string Protocol.Gave_up)
      (Protocol.error_code_to_string e.code);
    check bool_t "mentions the deadline" true
      (String.length e.message > 0)
  | Protocol.Result _ -> Alcotest.fail "expired deadline was not refused");
  (match analyze (Some 60_000.) with
  | Protocol.Result _ -> ()
  | Protocol.Error_ e ->
    Alcotest.failf "generous deadline failed: %s" e.message);
  Client.close c

(* A peer that starts a frame and stalls is reaped by the read deadline:
   it sees EOF within a few deadlines, the daemon counts the reap, and
   other clients are unaffected. *)
let test_slowloris_reaped () =
  with_server ~read_timeout_ms:150. @@ fun path ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* two bytes of a four-byte header, then silence *)
  ignore (Unix.write_substring fd "\x00\x00" 0 2);
  let deadline = Unix.gettimeofday () +. 3. in
  let rec await_eof () =
    if Unix.gettimeofday () > deadline then `Still_open
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> await_eof ()
      | _ -> (
        match Unix.read fd (Bytes.create 64) 0 64 with
        | 0 -> `Reaped
        | _ -> await_eof ()
        | exception Unix.Unix_error _ -> `Reaped)
  in
  check bool_t "stalled connection reaped" true (await_eof () = `Reaped);
  Unix.close fd;
  (* the daemon still serves, and accounted for the reap *)
  let c = connect_exn path in
  (match request_exn c Protocol.Health with
  | Protocol.Result { payload; _ } ->
    check bool_t "reap counted" true (health_int payload [ "reaped" ] >= 1)
  | Protocol.Error_ e -> Alcotest.failf "health failed: %s" e.message);
  Client.close c

(* Over the connection cap: the surplus connection receives a typed
   [Overloaded] shed carrying a retry hint, and once the cap frees up a
   retrying session gets through. *)
let test_overcap_shed_then_retry () =
  with_server ~max_connections:1 @@ fun path ->
  let c1 = connect_exn path in
  (* the cap is occupied: a second connection is shed with a hint *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (match Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 5.)
           ~max:Protocol.default_max_frame fd
   with
  | Ok payload -> (
    match Json.parse payload with
    | Ok j -> (
      match Protocol.decode_response j with
      | Ok (Protocol.Error_ e) ->
        check string_t "overloaded"
          (Protocol.error_code_to_string Protocol.Overloaded)
          (Protocol.error_code_to_string e.code);
        check bool_t "carries a retry hint" true (e.retry_after_ms <> None)
      | Ok (Protocol.Result _) -> Alcotest.fail "expected a shed, got a result"
      | Error e -> Alcotest.failf "undecodable shed: %s" e)
    | Error e -> Alcotest.failf "shed is not JSON: %s" e)
  | Error _ -> Alcotest.fail "no shed response on the over-cap connection");
  Unix.close fd;
  (* free the slot; a retrying session must eventually be admitted *)
  Client.close c1;
  let policy =
    {
      Client.default_policy with
      Client.p_attempts = 20;
      p_base_ms = 10.;
      p_max_ms = 100.;
    }
  in
  let s = Client.open_session ~policy (Protocol.Unix_path path) in
  (match Client.call s Protocol.Stats with
  | Ok (Protocol.Result _) -> ()
  | Ok (Protocol.Error_ e) -> Alcotest.failf "retry landed on: %s" e.message
  | Error e -> Alcotest.failf "retrying session failed: %s" e);
  Client.close_session s

(* Graceful drain: a request in flight when shutdown lands still gets
   its response; an idle connection is force-closed; [wait] returns
   within the drain budget plus slack.  The server is managed by hand
   here because the assertions straddle [Server.wait]. *)
let test_graceful_drain () =
  let path = fresh_path () in
  let config =
    {
      (Server.default_config (Protocol.Unix_path path)) with
      Server.c_domains = 1;
      c_drain_ms = 3_000.;
    }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  let idle = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect idle (Unix.ADDR_UNIX path);
  let inflight = ref (Error "never ran") in
  let a =
    Thread.create
      (fun () ->
        let c = connect_exn path in
        inflight :=
          (match
             Client.request c
               (Protocol.Analyze
                  { program = Corpus.find "cholsky"; in_bounds = false;
                    budget = Protocol.no_budget; deadline_ms = None })
           with
          | Ok (Protocol.Result _) -> Ok ()
          | Ok (Protocol.Error_ e) -> Error e.message
          | Error e -> Error e);
        Client.close c)
      ()
  in
  (* wait for the analyze to be in flight (or already done) *)
  let rec await tries =
    if tries = 0 || !inflight <> Error "never ran" then ()
    else
      let c = connect_exn path in
      let busy =
        match Client.request c Protocol.Health with
        | Ok (Protocol.Result { payload; _ }) ->
          health_int payload [ "in_flight" ] >= 1
        | _ -> false
      in
      Client.close c;
      if not busy then begin
        Thread.delay 0.002;
        await (tries - 1)
      end
  in
  await 500;
  (let c = connect_exn path in
   ignore (Client.request c Protocol.Shutdown);
   Client.close c);
  let t0 = Unix.gettimeofday () in
  Server.wait server;
  let wait_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Thread.join a;
  (match !inflight with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in-flight request lost in drain: %s" e);
  check bool_t "drain bounded" true (wait_ms < 6_000.);
  (* the idle connection was force-closed by the drain *)
  (match Unix.select [ idle ] [] [] 2. with
  | [], _, _ -> Alcotest.fail "idle connection not closed by drain"
  | _ -> (
    match Unix.read idle (Bytes.create 64) 0 64 with
    | 0 -> ()
    | _ -> Alcotest.fail "unexpected bytes on the idle connection"
    | exception Unix.Unix_error _ -> ()));
  Unix.close idle

(* The client's backoff schedule is a pure function of the policy seed:
   same seed, same delays; a different seed diverges; every delay is
   within the jitter envelope of its nominal step. *)
let test_retry_backoff_deterministic () =
  let no_server = fresh_path () in
  let run seed =
    let delays = ref [] in
    let policy =
      {
        Client.default_policy with
        Client.p_attempts = 6;
        p_base_ms = 10.;
        p_max_ms = 40.;
        p_retry_budget_ms = 1e9;
        p_connect_timeout_ms = Some 200.;
        p_seed = seed;
        p_sleep = (fun d -> delays := d :: !delays);
      }
    in
    let s = Client.open_session ~policy (Protocol.Unix_path no_server) in
    (match Client.call s Protocol.Stats with
    | Ok _ -> Alcotest.fail "a call with no server succeeded"
    | Error _ -> ());
    let retries = Client.session_retries s in
    Client.close_session s;
    (List.rev !delays, retries)
  in
  let d1, retries = run 11 in
  let d2, _ = run 11 in
  let d3, _ = run 12 in
  check int_t "one sleep per retry" 5 (List.length d1);
  check int_t "session_retries counts them" 5 retries;
  check bool_t "same seed, same schedule" true (d1 = d2);
  check bool_t "different seed diverges" true (d1 <> d3);
  List.iteri
    (fun i d ->
      let nominal = Float.min 40. (10. *. (2. ** float_of_int i)) in
      check bool_t
        (Printf.sprintf "delay %d within jitter envelope" i)
        true
        (d >= 0.5 *. nominal && d < 1.5 *. nominal))
    d1

(* ------------------------------------------------------------------ *)
(* Memo thread safety                                                  *)
(* ------------------------------------------------------------------ *)

let test_memo_stress () =
  let open Depend.Analyses in
  let saved_capacity = !Memo.capacity in
  Fun.protect
    ~finally:(fun () ->
      Memo.capacity := saved_capacity;
      Memo.reset ())
    (fun () ->
      Memo.capacity := 64;
      Memo.reset ();
      let threads = 8 and rounds = 2000 in
      let worker k () =
        for i = 0 to rounds - 1 do
          (* overlapping key ranges: plenty of sharing and eviction *)
          let key = Printf.sprintf "k%d" ((i + (k * 37)) mod 512) in
          ignore
            (Memo.verdict key (fun () ->
                 if i land 1 = 0 then
                   (Omega.Budget.Proved, Some Omega.Portfolio.Tier_screen)
                 else
                   (Omega.Budget.Disproved, Some Omega.Portfolio.Tier_complete)));
          let size = Memo.size () in
          if size > 64 then
            Alcotest.failf "cache exceeded capacity: %d > 64" size
        done
      in
      let ts = List.init threads (fun k -> Thread.create (worker k) ()) in
      List.iter Thread.join ts;
      let m = Memo.stats in
      let total = m.Memo.hits + m.Memo.misses in
      check int_t "every probe accounted" (threads * rounds) total;
      check bool_t "bounded" true (Memo.size () <= 64))

(* Concurrent askers of one fresh key: the first claims it and
   computes, the others wait and replay its entry.  A compute that
   raises still releases its claim, so the next asker computes. *)
let test_memo_inflight () =
  let open Depend.Analyses in
  Fun.protect ~finally:Memo.reset (fun () ->
      Memo.reset ();
      let computed = Atomic.make 0 in
      let threads = 6 in
      let ask () =
        ignore
          (Memo.verdict "shared" (fun () ->
               Atomic.incr computed;
               Thread.delay 0.02;
               (Omega.Budget.Proved, Some Omega.Portfolio.Tier_complete)))
      in
      let ts = List.init threads (fun _ -> Thread.create ask ()) in
      List.iter Thread.join ts;
      check int_t "one compute" 1 (Atomic.get computed);
      check int_t "one miss" 1 Memo.stats.Memo.misses;
      check int_t "the rest replay" (threads - 1) Memo.stats.Memo.hits;
      (match
         Memo.verdict "raises" (fun () -> failwith "solver crashed")
       with
      | _ -> Alcotest.fail "expected the exception"
      | exception Failure _ -> ());
      let again =
        Memo.verdict "raises" (fun () -> (Omega.Budget.Disproved, None))
      in
      check bool_t "claim released: the next asker computes" true
        (fst again = Omega.Budget.Disproved))

(* Requests that overflow native integers: a calc query whose
   elimination overflows, a splinter count that would build three
   million problems, and a program whose subscript constants cannot be
   subtracted, each get a typed [gave_up] error naming the reason, and
   the connection keeps answering. *)
let test_server_overflow () =
  with_server @@ fun path ->
  let c = connect_exn path in
  let calc op =
    request_exn c
      (Protocol.Omega_calc
         { op; budget = Protocol.no_budget; deadline_ms = None })
  in
  let expect_gave_up reason resp =
    expect_error Protocol.Gave_up resp;
    match resp with
    | Protocol.Error_ e ->
      check bool_t
        (Printf.sprintf "%S names %s" e.message reason)
        true
        (String.ends_with ~suffix:(Printf.sprintf "(%s)" reason) e.message)
    | Protocol.Result _ -> ()
  in
  let project problem =
    calc (Protocol.Project { mode = `Exact; onto = [ "x"; "z" ]; problem })
  in
  expect_gave_up "overflow"
    (project
       "3000000000*x <= 2999999999*y && 2999999998*y <= 3000000001*z && 1 <= x");
  expect_gave_up "splinters"
    (project "3000000*x <= 2999999*y && 2999998*y <= 3000001*z && 1 <= x");
  expect_gave_up "overflow"
    (calc
       (Protocol.Sat
          "4000000000*i + 3000000001*j = 3000000001*k + 4000000000*l + 7 && \
           1 <= i <= 10 && 1 <= j <= 10 && 1 <= k <= 10 && 1 <= l <= 10"));
  expect_gave_up "overflow"
    (request_exn c
       (Protocol.Analyze
          {
            program =
              "real a[0:10];\nfor i := 1 to 10 do\n  a(4611686018427387903) \
               := a(-4611686018427387903) + 1;\nendfor\n";
            in_bounds = false;
            budget = Protocol.no_budget;
            deadline_ms = None;
          }));
  (match calc (Protocol.Sat "0 <= x <= 5") with
  | Protocol.Result { payload; _ } ->
    check bool_t "still answering" true
      (Json.equal payload (Json.Obj [ ("sat", Json.Bool true) ]))
  | Protocol.Error_ e -> Alcotest.failf "sat after overflow: %s" e.message);
  Client.close c

let suite =
  ( "serve",
    [
      Alcotest.test_case "json round-trips" `Quick test_json_basic;
      QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_parse_total;
      Alcotest.test_case "protocol round-trips" `Quick
        test_protocol_roundtrip;
      Alcotest.test_case "bad requests rejected" `Quick test_decode_rejects;
      Alcotest.test_case "server: calc requests" `Quick test_server_calc;
      Alcotest.test_case "server: malformed frame survives" `Quick
        test_server_malformed_frame;
      Alcotest.test_case "server: oversized frame survives" `Quick
        test_server_oversized_frame;
      Alcotest.test_case "server: truncated frame contained" `Quick
        test_server_truncated_frame;
      Alcotest.test_case "server: health endpoint" `Quick test_health;
      Alcotest.test_case "server: expired deadline refused" `Quick
        test_request_deadline;
      Alcotest.test_case "server: slowloris reaped" `Quick
        test_slowloris_reaped;
      Alcotest.test_case "server: over-cap shed then retry" `Quick
        test_overcap_shed_then_retry;
      Alcotest.test_case "server: graceful drain" `Quick test_graceful_drain;
      Alcotest.test_case "client: deterministic retry backoff" `Quick
        test_retry_backoff_deterministic;
      Alcotest.test_case "1 vs 8 clients, identical verdicts" `Slow
        test_concurrent_determinism;
      Alcotest.test_case "8 clients over 2 solver domains, identical verdicts"
        `Slow test_concurrent_determinism_domains;
      Alcotest.test_case "memo: concurrent stress" `Quick test_memo_stress;
      Alcotest.test_case "memo: in-flight key computed once" `Quick
        test_memo_inflight;
      Alcotest.test_case "server: overflow gives up" `Quick test_server_overflow;
    ] )
