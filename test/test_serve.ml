(* The resident daemon: framed transport, protocol grammar, bounded
   scheduling with shedding, watermark-driven eviction, and the daemon's
   robustness headline — deadline rollback, backpressure under concurrent
   clients, malformed-frame quarantine, and kill -9 + restart resuming an
   in-flight approximation to the bit-identical circuit. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_dir () = Filename.temp_file "alsrac_serve" "" ^ ".d"

(* Unix-domain socket paths are length-limited (~104 bytes), so sockets get
   short names directly under the temp dir.  [temp_file] reserves the name;
   the placeholder file is removed so [listen] can bind there. *)
let fresh_socket () =
  let p = Filename.temp_file "als" ".sock" in
  Sys.remove p;
  p

(* ---------- Transport ---------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

let test_transport_roundtrip () =
  with_socketpair @@ fun a b ->
  let payloads = [ ""; "x"; String.make 100_000 'q'; "line1\nline2\n\x00\xff" ] in
  List.iter
    (fun p ->
      Serve.Transport.send a p;
      check_string "frame round-trips" p (Serve.Transport.recv ~timeout_s:5.0 b))
    payloads

let test_transport_rejects_garbage () =
  (* Bad magic. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "NOPE\x00\x00\x00\x01x\x00\x00\x00\x00" 0 13);
      match Serve.Transport.recv ~timeout_s:1.0 b with
      | _ -> Alcotest.fail "bad magic accepted"
      | exception Serve.Transport.Malformed _ -> ());
  (* Oversized length field: rejected before allocating. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "ALS1\x7f\xff\xff\xff" 0 8);
      match Serve.Transport.recv ~timeout_s:1.0 b with
      | _ -> Alcotest.fail "oversized length accepted"
      | exception Serve.Transport.Malformed _ -> ());
  (* Checksum mismatch. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "ALS1\x00\x00\x00\x02hi\x00\x00\x00\x00" 0 14);
      match Serve.Transport.recv ~timeout_s:1.0 b with
      | _ -> Alcotest.fail "checksum mismatch accepted"
      | exception Serve.Transport.Malformed _ -> ());
  (* EOF mid-frame: the peer died after half a frame. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "ALS1\x00\x00\x00\x0aabc" 0 11);
      Unix.close a;
      match Serve.Transport.recv ~timeout_s:1.0 b with
      | _ -> Alcotest.fail "torn frame accepted"
      | exception Serve.Transport.Malformed _ -> ());
  (* Clean EOF at a frame boundary is Closed, not Malformed. *)
  with_socketpair (fun a b ->
      Unix.close a;
      match Serve.Transport.recv ~timeout_s:1.0 b with
      | _ -> Alcotest.fail "EOF produced a frame"
      | exception Serve.Transport.Closed -> ())

let test_transport_timeout () =
  with_socketpair @@ fun _a b ->
  let t0 = Unix.gettimeofday () in
  match Serve.Transport.recv ~timeout_s:0.2 b with
  | _ -> Alcotest.fail "recv returned without data"
  | exception Serve.Transport.Timeout ->
      check "timeout honored" true (Unix.gettimeofday () -. t0 < 2.0)

let test_transport_fault_injection () =
  (* Injected mid-frame EOF on send: sender raises, receiver sees a torn
     frame once the socket closes. *)
  let plan = Core.Fault.plan_of_string "eof-mid-frame@1" in
  with_socketpair (fun a b ->
      (match Serve.Transport.send ~faults:plan ~nth:1 a "hello world" with
      | () -> Alcotest.fail "injected send completed"
      | exception Core.Fault.Injected _ -> ());
      Unix.close a;
      match Serve.Transport.recv ~timeout_s:1.0 b with
      | _ -> Alcotest.fail "torn frame accepted"
      | exception Serve.Transport.Malformed _ -> ());
  (* Injected short read on recv: frame lost, connection poisoned. *)
  let plan = Core.Fault.plan_of_string "short-read@1" in
  with_socketpair (fun a b ->
      Serve.Transport.send a "hello world";
      match Serve.Transport.recv ~faults:plan ~nth:1 ~timeout_s:1.0 b with
      | _ -> Alcotest.fail "short read produced a frame"
      | exception Serve.Transport.Malformed _ -> ());
  (* Delayed write completes, just late. *)
  let plan = Core.Fault.plan_of_string "delay-write@1:50" in
  with_socketpair (fun a b ->
      let t0 = Unix.gettimeofday () in
      Serve.Transport.send ~faults:plan ~nth:1 a "slow";
      check_string "delayed frame arrives" "slow"
        (Serve.Transport.recv ~timeout_s:1.0 b);
      check "write was delayed" true (Unix.gettimeofday () -. t0 >= 0.045))

(* ---------- Protocol ---------- *)

let sample_params =
  {
    Serve.Protocol.metric = Errest.Metrics.Nmed;
    threshold = 0.015625;
    seed = 42;
    eval_rounds = 2048;
    max_iters = 17;
  }

let test_protocol_request_roundtrip () =
  let reqs =
    [
      Serve.Protocol.Ping;
      Serve.Protocol.Load
        { session = "s1"; circuit = "mtp8"; graph = None; priority = 3 };
      Serve.Protocol.Load
        {
          session = "shipped";
          circuit = "-";
          graph = Some "aag 3 1 0 1 1\n2\n4\n\x00raw";
          priority = 0;
        };
      Serve.Protocol.Approx
        { session = "s1"; params = sample_params; deadline_s = Some 1.5 };
      Serve.Protocol.Approx
        { session = "s1"; params = sample_params; deadline_s = None };
      Serve.Protocol.Metrics { session = "s1"; metric = Errest.Metrics.Er };
      Serve.Protocol.Cec { session = "s1" };
      Serve.Protocol.Get { session = "s1" };
      Serve.Protocol.Status;
      Serve.Protocol.Evict { session = "s1" };
      Serve.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      let req' =
        Serve.Protocol.decode_request (Serve.Protocol.encode_request req)
      in
      check "request round-trips" true (req = req'))
    reqs

let test_protocol_response_roundtrip () =
  let resps =
    [
      Serve.Protocol.Ok ([], None);
      Serve.Protocol.Ok
        ([ ("a", "1"); ("b", "two words"); ("c", "") ], Some "blob\nbytes");
      Serve.Protocol.Err
        {
          code = Serve.Protocol.Overloaded;
          detail = "queue full\nnasty \"detail\"";
          retry_after_s = Some 1.25;
        };
      Serve.Protocol.Err
        { code = Serve.Protocol.Timeout; detail = ""; retry_after_s = None };
    ]
  in
  List.iter
    (fun resp ->
      let resp' =
        Serve.Protocol.decode_response (Serve.Protocol.encode_response resp)
      in
      check "response round-trips" true (resp = resp'))
    resps

let test_protocol_rejects_garbage () =
  let bad =
    [
      "";
      "alsrac-req 2\nverb ping\nend\n";
      "alsrac-req 1\nverb frobnicate\nend\n";
      "alsrac-req 1\nverb load\nsession ../etc\ncircuit x\npriority 0\nend\n";
      "alsrac-req 1\nverb approx\nsession s\nend\n";
      "alsrac-req 1\nverb load\nsession s\ncircuit c\npriority 0\ngraph 999999 0\nend\n";
      "alsrac-req 1\nverb ping";
      "not a protocol frame at all \x00\xff";
    ]
  in
  List.iter
    (fun payload ->
      match Serve.Protocol.decode_request payload with
      | _ -> Alcotest.fail (Printf.sprintf "accepted %S" payload)
      | exception Failure _ -> ())
    bad

let test_protocol_session_names () =
  check "plain ok" true (Serve.Protocol.valid_session_name "my-session_1.x");
  check "empty rejected" false (Serve.Protocol.valid_session_name "");
  check "dotfile rejected" false (Serve.Protocol.valid_session_name ".hidden");
  check "slash rejected" false (Serve.Protocol.valid_session_name "a/b");
  check "space rejected" false (Serve.Protocol.valid_session_name "a b");
  check "long rejected" false
    (Serve.Protocol.valid_session_name (String.make 65 'a'))

(* ---------- Scheduler ---------- *)

let ok_reply tag = Serve.Protocol.Ok ([ ("tag", tag) ], None)

let test_scheduler_priority_and_shed () =
  let s = Serve.Scheduler.create ~max_queue:2 in
  let submit ~priority ~session tag =
    Serve.Scheduler.submit s ~session ~priority ~budget:0.0 ~deadline:infinity
      ~work:(fun () -> ok_reply tag)
  in
  let t_low =
    match submit ~priority:0 ~session:"low" "low" with
    | `Queued t -> t
    | `Overloaded -> Alcotest.fail "low rejected"
  in
  let _t_mid =
    match submit ~priority:1 ~session:"mid" "mid" with
    | `Queued t -> t
    | `Overloaded -> Alcotest.fail "mid rejected"
  in
  (* Queue full: an equal-priority newcomer is refused... *)
  (match submit ~priority:0 ~session:"x" "x" with
  | `Overloaded -> ()
  | `Queued _ -> Alcotest.fail "overflow accepted");
  (* ...but a higher-priority one sheds the lowest-priority entry. *)
  let _t_high =
    match submit ~priority:5 ~session:"high" "high" with
    | `Queued t -> t
    | `Overloaded -> Alcotest.fail "high-priority rejected"
  in
  (match Serve.Scheduler.await t_low with
  | Serve.Protocol.Err { code = Serve.Protocol.Shedding; _ } -> ()
  | _ -> Alcotest.fail "shed job did not get a Shedding error");
  (* Executor order: highest priority first. *)
  let next_tag () =
    match Serve.Scheduler.next s with
    | Some job -> (
        let r = job.Serve.Scheduler.work () in
        Serve.Scheduler.finish s job r;
        match r with
        | Serve.Protocol.Ok ([ ("tag", tag) ], None) -> tag
        | _ -> Alcotest.fail "bad reply")
    | None -> Alcotest.fail "queue empty"
  in
  check_string "high first" "high" (next_tag ());
  check_string "mid second" "mid" (next_tag ());
  check_int "drained" 0 (Serve.Scheduler.depth s)

let test_scheduler_expired_in_queue () =
  let s = Serve.Scheduler.create ~max_queue:4 in
  let t_stale =
    match
      Serve.Scheduler.submit s ~session:"stale" ~priority:9 ~budget:0.0
        ~deadline:(Parallel.Clock.now_s () -. 1.0)
        ~work:(fun () -> Alcotest.fail "expired job ran")
    with
    | `Queued t -> t
    | `Overloaded -> Alcotest.fail "rejected"
  in
  let t_live =
    match
      Serve.Scheduler.submit s ~session:"live" ~priority:0 ~budget:0.0
        ~deadline:infinity
        ~work:(fun () -> ok_reply "live")
    with
    | `Queued t -> t
    | `Overloaded -> Alcotest.fail "rejected"
  in
  (match Serve.Scheduler.next s with
  | Some job ->
      check_string "only the live job runs" "live" job.Serve.Scheduler.session;
      Serve.Scheduler.finish s job (job.Serve.Scheduler.work ())
  | None -> Alcotest.fail "no job");
  (match Serve.Scheduler.await t_stale with
  | Serve.Protocol.Err { code = Serve.Protocol.Timeout; _ } -> ()
  | _ -> Alcotest.fail "expired job did not time out");
  match Serve.Scheduler.await t_live with
  | Serve.Protocol.Ok _ -> ()
  | _ -> Alcotest.fail "live job failed"

let test_scheduler_fairness_by_budget () =
  let s = Serve.Scheduler.create ~max_queue:4 in
  let submit session budget =
    match
      Serve.Scheduler.submit s ~session ~priority:0 ~budget ~deadline:infinity
        ~work:(fun () -> ok_reply session)
    with
    | `Queued t -> t
    | `Overloaded -> Alcotest.fail "rejected"
  in
  let _ = submit "greedy" 100.0 in
  let _ = submit "frugal" 1.0 in
  match Serve.Scheduler.next s with
  | Some job ->
      check_string "least-budget session first" "frugal"
        job.Serve.Scheduler.session;
      Serve.Scheduler.finish s job (ok_reply "x")
  | None -> Alcotest.fail "no job"

(* ---------- Watchdog ---------- *)

let test_watchdog_evictions () =
  let c name last_used busy bytes =
    { Serve.Watchdog.name; last_used; busy; bytes }
  in
  let candidates =
    [ c "hot" 100.0 false 40; c "cold" 1.0 false 40; c "busy" 0.5 true 40;
      c "warm" 50.0 false 40 ]
  in
  (* Under the high watermark: nothing to do. *)
  check "under watermark" true
    (Serve.Watchdog.plan_evictions ~candidates ~resident_bytes:100
       ~high_watermark:120 ~low_watermark:90
    = []);
  (* Over it: coldest idle first, stop at the low watermark, never evict a
     busy session. *)
  let plan =
    Serve.Watchdog.plan_evictions ~candidates ~resident_bytes:160
      ~high_watermark:120 ~low_watermark:90
  in
  check "coldest idle evicted first" true (plan = [ "cold"; "warm" ]);
  (* Even an impossible target never evicts busy sessions. *)
  let plan =
    Serve.Watchdog.plan_evictions ~candidates ~resident_bytes:160
      ~high_watermark:120 ~low_watermark:0
  in
  check "busy sessions survive" false (List.mem "busy" plan)

let test_watchdog_retry_after () =
  let r = Serve.Watchdog.retry_after ~queue_depth:4 ~mean_service_s:0.5 in
  check "scales with depth" true (r >= 1.9 && r <= 2.1);
  check "clamped below" true
    (Serve.Watchdog.retry_after ~queue_depth:0 ~mean_service_s:0.0 >= 0.1);
  check "clamped above" true
    (Serve.Watchdog.retry_after ~queue_depth:1000 ~mean_service_s:60.0 <= 30.0)

(* ---------- Session persistence ---------- *)

let test_session_persistence () =
  let state_dir = fresh_dir () in
  let g = Circuits.Epfl_control.ctrl () in
  let s =
    Serve.Session.create ~state_dir ~name:"s1" ~circuit:"ctrl" ~graph:g
      ~priority:2
  in
  check "fresh session is exact" true (Serve.Session.metric s Errest.Metrics.Er = 0.0);
  s.Serve.Session.budget_s <- 1.5;
  s.Serve.Session.applied_total <- 7;
  Serve.Session.save_manifest s;
  let req =
    Serve.Protocol.Approx { session = "s1"; params = sample_params; deadline_s = None }
  in
  Serve.Session.record_inflight s req;
  let s' = Serve.Session.load_dir ~state_dir ~name:"s1" in
  (* [Aiger.parse] renames graphs to "aiger", so compare both originals
     after a parse round-trip to factor out the trailing name comment. *)
  let norm g =
    Circuit_io.Aiger.graph_to_string
      (Circuit_io.Aiger.parse (Circuit_io.Aiger.graph_to_string g))
  in
  check_string "original survives reload"
    (norm s.Serve.Session.original)
    (norm s'.Serve.Session.original);
  check_int "applied survives" 7 s'.Serve.Session.applied_total;
  check_int "priority survives" 2 s'.Serve.Session.priority;
  check "budget survives" true (s'.Serve.Session.budget_s = 1.5);
  check "inflight survives" true (Serve.Session.inflight s' = Some req);
  Serve.Session.clear_inflight s';
  check "inflight cleared" true (Serve.Session.inflight s' = None);
  check "scan finds it" true (Serve.Session.scan ~state_dir = [ "s1" ]);
  Serve.Session.destroy s';
  check "destroy removes it" true (Serve.Session.scan ~state_dir = [])

(* ---------- In-process daemon harness ---------- *)

let daemon_config () =
  {
    (Serve.Daemon.default ~socket:(fresh_socket ()) ~state_dir:(fresh_dir ())) with
    Serve.Daemon.default_deadline_s = 60.0;
    read_timeout_s = 10.0;
  }

let with_daemon cfg f =
  let thread = Thread.create (fun () -> Serve.Daemon.run cfg) () in
  let conn = Serve.Client.connect ~path:cfg.Serve.Daemon.socket () in
  let shut () =
    (try ignore (Serve.Client.shutdown conn) with _ -> ());
    Serve.Client.close conn;
    Thread.join thread
  in
  Fun.protect ~finally:shut (fun () -> f conn)

let status_field conn key =
  match Serve.Client.ok_field (Serve.Client.status conn) key with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "status lacks %s" key)

(* Poll [status] until the daemon reports a session busy, for up to 5 s.
   The tests below need an approx started on another connection to be
   running when their next request arrives, and it takes well under a
   second on a fast machine, so a fixed sleep can land before it starts or
   after it ends. *)
let session_claimed conn =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec claimed () =
    Util.contains (status_field conn "session") "busy=true"
    || (Unix.gettimeofday () < deadline && (Thread.delay 0.01; claimed ()))
  in
  claimed ()

let test_daemon_lifecycle () =
  with_daemon (daemon_config ()) @@ fun conn ->
  check "ping" true (Serve.Client.ping conn);
  (match Serve.Client.load conn ~session:"s1" ~circuit:"ctrl" () with
  | Serve.Protocol.Ok (kvs, _) ->
      check "load reports ands" true (List.mem_assoc "input-ands" kvs)
  | Serve.Protocol.Err _ -> Alcotest.fail "load failed");
  (* Warm metric of an untouched session is exactly zero. *)
  (match Serve.Client.metrics conn ~session:"s1" ~metric:Errest.Metrics.Er with
  | Serve.Protocol.Ok (kvs, _) ->
      check_string "zero error" "0" (List.assoc "value" kvs)
  | Serve.Protocol.Err _ -> Alcotest.fail "metrics failed");
  (match Serve.Client.cec conn ~session:"s1" with
  | Serve.Protocol.Ok (kvs, _) ->
      check_string "cec equivalent" "equivalent" (List.assoc "verdict" kvs)
  | Serve.Protocol.Err _ -> Alcotest.fail "cec failed");
  (match Serve.Client.get conn ~session:"s1" with
  | Serve.Protocol.Ok (_, Some _) -> ()
  | _ -> Alcotest.fail "get returned no graph");
  check_string "one session" "1" (status_field conn "sessions");
  (match Serve.Client.evict conn ~session:"s1" with
  | Serve.Protocol.Ok _ -> ()
  | Serve.Protocol.Err _ -> Alcotest.fail "evict failed");
  match Serve.Client.metrics conn ~session:"s1" ~metric:Errest.Metrics.Er with
  | Serve.Protocol.Err { code = Serve.Protocol.No_session; _ } -> ()
  | _ -> Alcotest.fail "evicted session still answers"

let test_daemon_unknown_session_and_circuit () =
  with_daemon (daemon_config ()) @@ fun conn ->
  (match Serve.Client.load conn ~session:"s1" ~circuit:"definitely-not-real" () with
  | Serve.Protocol.Err { code = Serve.Protocol.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "unknown circuit accepted");
  match
    Serve.Client.approx conn ~session:"ghost" ~params:sample_params ()
  with
  | Serve.Protocol.Err { code = Serve.Protocol.No_session; _ } -> ()
  | _ -> Alcotest.fail "approx on missing session accepted"

let approx_params ~threshold =
  {
    Serve.Protocol.metric = Errest.Metrics.Er;
    threshold;
    seed = 1;
    eval_rounds = 1024;
    max_iters = 1000;
  }

(* A c1908 run long enough for the timing tests below, which need it still
   running 0.25 s in, or when the daemon first reports it busy. *)
let slow_approx_params = { (approx_params ~threshold:0.05) with eval_rounds = 16384 }

let test_daemon_deadline_rollback () =
  with_daemon (daemon_config ()) @@ fun conn ->
  (match Serve.Client.load conn ~session:"s1" ~circuit:"c1908" () with
  | Serve.Protocol.Ok _ -> ()
  | Serve.Protocol.Err _ -> Alcotest.fail "load failed");
  let original_ands =
    int_of_string
      (Option.get (Serve.Client.ok_field (Serve.Client.get conn ~session:"s1") "ands"))
  in
  (* The c1908 flow needs over a second; a 0.25s deadline must expire
     mid-run, produce a structured timeout and roll the session back. *)
  (match
     Serve.Client.approx conn ~session:"s1" ~params:slow_approx_params
       ~deadline_s:0.25 ()
   with
  | Serve.Protocol.Err { code = Serve.Protocol.Timeout; _ } -> ()
  | Serve.Protocol.Ok _ -> Alcotest.fail "run beat a 0.25s deadline?"
  | Serve.Protocol.Err { code; _ } ->
      Alcotest.fail
        ("expected timeout, got " ^ Serve.Protocol.code_to_string code));
  (* The daemon is not wedged and the session rolled back to a guarded
     snapshot: at most the checkpointed prefix of the run is visible. *)
  check "daemon alive after timeout" true (Serve.Client.ping conn);
  let ands_after =
    int_of_string
      (Option.get (Serve.Client.ok_field (Serve.Client.get conn ~session:"s1") "ands"))
  in
  check "rolled back to a snapshot" true (ands_after <= original_ands);
  match Serve.Client.metrics conn ~session:"s1" ~metric:Errest.Metrics.Er with
  | Serve.Protocol.Ok _ -> ()
  | Serve.Protocol.Err _ -> Alcotest.fail "session unusable after rollback"

let test_daemon_backpressure () =
  let cfg = { (daemon_config ()) with Serve.Daemon.max_queue = 1 } in
  with_daemon cfg @@ fun conn ->
  (match Serve.Client.load conn ~session:"s1" ~circuit:"c1908" () with
  | Serve.Protocol.Ok _ -> ()
  | Serve.Protocol.Err _ -> Alcotest.fail "load failed");
  (* Occupy the executor with a deadline-bounded approx... *)
  let approx_done = ref None in
  let approx_thread =
    Thread.create
      (fun () ->
        let c = Serve.Client.connect ~path:cfg.Serve.Daemon.socket () in
        approx_done :=
          Some
            (Serve.Client.approx c ~session:"s1" ~params:slow_approx_params
               ~deadline_s:2.0 ());
        Serve.Client.close c)
      ()
  in
  check "approx claimed the session" true (session_claimed conn);
  (* ...then hit the size-1 queue from several concurrent clients. *)
  let results = Array.make 3 None in
  let clients =
    Array.init 3 (fun i ->
        Thread.create
          (fun () ->
            let c = Serve.Client.connect ~path:cfg.Serve.Daemon.socket () in
            results.(i) <-
              Some (Serve.Client.metrics c ~session:"s1" ~metric:Errest.Metrics.Er);
            Serve.Client.close c)
          ())
  in
  Array.iter Thread.join clients;
  Thread.join approx_thread;
  let overloaded = ref 0 and served = ref 0 and hinted = ref 0 in
  Array.iter
    (fun r ->
      match r with
      | Some (Serve.Protocol.Err { code = Serve.Protocol.Overloaded; retry_after_s; _ })
        ->
          incr overloaded;
          if retry_after_s <> None then incr hinted
      | Some (Serve.Protocol.Ok _) -> incr served
      | _ -> ())
    results;
  check "some client was pushed back" true (!overloaded >= 1);
  check_int "every overload carried a retry hint" !overloaded !hinted;
  check "some client was served" true (!served >= 1);
  check "daemon alive under pressure" true (Serve.Client.ping conn)

let test_daemon_busy_approx () =
  let cfg = daemon_config () in
  with_daemon cfg @@ fun conn ->
  (match Serve.Client.load conn ~session:"s1" ~circuit:"c1908" () with
  | Serve.Protocol.Ok _ -> ()
  | Serve.Protocol.Err _ -> Alcotest.fail "load failed");
  let first =
    Thread.create
      (fun () ->
        let c = Serve.Client.connect ~path:cfg.Serve.Daemon.socket () in
        ignore
          (Serve.Client.approx c ~session:"s1" ~params:slow_approx_params
             ~deadline_s:2.0 ());
        Serve.Client.close c)
      ()
  in
  (* The second approx must arrive while the first holds the session. *)
  check "first approx claimed the session" true (session_claimed conn);
  (match
     Serve.Client.approx conn ~session:"s1"
       ~params:(approx_params ~threshold:0.05) ()
   with
  | Serve.Protocol.Err { code = Serve.Protocol.Busy; _ } -> ()
  | _ -> Alcotest.fail "concurrent approx on one session accepted");
  Thread.join first

let test_daemon_malformed_fuzz () =
  let cfg = daemon_config () in
  with_daemon cfg @@ fun conn ->
  check "ping before fuzz" true (Serve.Client.ping conn);
  let socket = cfg.Serve.Daemon.socket in
  let rng = Logic.Rng.create 0xF00D in
  let write_all fd s =
    let pos = ref 0 in
    (try
       while !pos < String.length s do
         pos := !pos + Unix.write_substring fd s !pos (String.length s - !pos)
       done
     with Unix.Unix_error _ -> ())
  in
  let random_bytes n =
    String.init n (fun _ -> Char.chr (Logic.Rng.int rng 256))
  in
  (* Frame-layer garbage: random bytes, corrupt headers, truncated frames.
     Each poisoned connection must be dropped; the daemon must survive. *)
  for i = 1 to 12 do
    let fd = Serve.Transport.connect ~path:socket in
    (match i mod 4 with
    | 0 -> write_all fd (random_bytes (1 + Logic.Rng.int rng 64))
    | 1 -> write_all fd ("XXXX" ^ random_bytes 12)
    | 2 -> write_all fd "ALS1\xff\xff\xff\xff"
    | _ ->
        (* Valid header, missing payload: torn frame. *)
        write_all fd "ALS1\x00\x00\x01\x00half");
    (try Unix.close fd with _ -> ())
  done;
  (* Payload-layer garbage in well-formed frames: the daemon answers each
     with a structured Bad_request, then quarantines the connection after
     three strikes. *)
  let fd = Serve.Transport.connect ~path:socket in
  let bad_requests = ref 0 in
  (try
     for _ = 1 to 3 do
       Serve.Transport.send fd ("alsrac-req 1\nverb " ^ random_bytes 8 ^ "\nend\n");
       match Serve.Protocol.decode_response (Serve.Transport.recv ~timeout_s:5.0 fd) with
       | Serve.Protocol.Err { code = Serve.Protocol.Bad_request; _ } ->
           incr bad_requests
       | _ -> ()
     done
   with _ -> ());
  check_int "each malformed payload got a structured error" 3 !bad_requests;
  (* Fourth strike: the connection is gone. *)
  (try
     Serve.Transport.send fd "alsrac-req 1\nverb nonsense\nend\n";
     match Serve.Transport.recv ~timeout_s:5.0 fd with
     | _ -> Alcotest.fail "quarantined connection still answers"
     | exception (Serve.Transport.Closed | Serve.Transport.Malformed _) -> ()
   with Unix.Unix_error _ -> ());
  (try Unix.close fd with _ -> ());
  (* The daemon survived it all and counted the damage.  Each garbage
     connection is handled on its own thread, so the count may lag the
     writes: poll for up to 5 s. *)
  check "daemon alive after fuzz" true (Serve.Client.ping conn);
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec counted () =
    int_of_string (status_field conn "malformed") >= 12
    || (Unix.gettimeofday () < deadline && (Thread.delay 0.01; counted ()))
  in
  check "malformed frames were counted" true (counted ())

let test_daemon_dispatch_fault () =
  let cfg =
    { (daemon_config ()) with Serve.Daemon.fault = Core.Fault.plan_of_string "raise@1" }
  in
  with_daemon cfg @@ fun conn ->
  (* The first request of every connection hits the injected dispatch
     fault as a structured internal error... *)
  (match Serve.Client.status conn with
  | Serve.Protocol.Err { code = Serve.Protocol.Internal; detail; _ } ->
      check "injected detail" true
        (detail = "injected dispatch fault")
  | _ -> Alcotest.fail "dispatch fault not injected");
  (* ...and the connection survives to serve the next one. *)
  check "connection survives the fault" true (Serve.Client.ping conn)

(* ---------- Kill -9 and resume (subprocess daemon) ---------- *)

let alsrac_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/alsrac.exe"

let spawn_daemon ~socket ~state_dir =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process alsrac_exe
      [| alsrac_exe; "serve"; "--socket"; socket; "--state-dir"; state_dir;
         "--deadline"; "300" |]
      null null null
  in
  Unix.close null;
  pid

let wait_for path ~timeout_s =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if Sys.file_exists path then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let test_daemon_kill_and_resume () =
  let socket = fresh_socket () and state_dir = fresh_dir () in
  let g = Circuits.Epfl_control.cavlc () in
  let bytes = Circuit_io.Aiger.graph_to_string g in
  let threshold = 0.05 in
  let pid = spawn_daemon ~socket ~state_dir in
  let conn = Serve.Client.connect ~path:socket () in
  (match
     Serve.Client.load conn ~session:"s1" ~circuit:"-" ~graph:bytes ()
   with
  | Serve.Protocol.Ok _ -> ()
  | Serve.Protocol.Err _ -> Alcotest.fail "load failed");
  (* Fire the approx from a helper thread (it blocks until completion —
     which never comes, because we SIGKILL the daemon mid-run). *)
  let _approx_thread =
    Thread.create
      (fun () ->
        try
          ignore
            (Serve.Client.approx conn ~session:"s1"
               ~params:(approx_params ~threshold) ())
        with _ -> ())
      ()
  in
  (* Kill the instant the first accepted-LAC checkpoint hits the disk:
     guaranteed mid-run. *)
  let checkpoint =
    Filename.concat state_dir (Filename.concat "s1" "journal/checkpoint")
  in
  check "a checkpoint appeared" true (wait_for checkpoint ~timeout_s:30.0);
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Serve.Client.close conn;
  let was_inflight =
    Sys.file_exists (Filename.concat state_dir (Filename.concat "s1" "inflight"))
  in
  check "killed mid-request (inflight marker on disk)" true was_inflight;
  (* Restart: the daemon replays the in-flight approximation from its
     journal before opening the socket. *)
  let pid2 = spawn_daemon ~socket ~state_dir in
  let conn2 = Serve.Client.connect ~retries:120 ~path:socket () in
  check_string "restart resumed the session" "1"
    (Option.get (Serve.Client.ok_field (Serve.Client.status conn2) "resumed-sessions"));
  let resumed_bytes =
    match Serve.Client.get conn2 ~session:"s1" with
    | Serve.Protocol.Ok (_, Some b) -> b
    | _ -> Alcotest.fail "get after resume failed"
  in
  ignore (Serve.Client.shutdown conn2);
  Serve.Client.close conn2;
  ignore (Unix.waitpid [] pid2);
  (* Reference: the identical uninterrupted run, in-process.  The daemon
     parses the shipped AIGER, so the reference must too. *)
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold) with
      Core.Config.seed = 1; eval_rounds = 1024; max_iters = 1000; jobs = 1 }
  in
  let reference, _ = Core.Flow.run ~config (Circuit_io.Aiger.parse bytes) in
  check_string "kill -9 + resume is bit-identical to an uninterrupted run"
    (Circuit_io.Aiger.graph_to_string reference)
    resumed_bytes

(* ---------- Runner ---------- *)

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "serve"
    [
      ( "transport",
        [
          tc "frame round-trip" test_transport_roundtrip;
          tc "hostile frames rejected" test_transport_rejects_garbage;
          tc "read deadline" test_transport_timeout;
          tc "io fault injection" test_transport_fault_injection;
        ] );
      ( "protocol",
        [
          tc "request round-trip" test_protocol_request_roundtrip;
          tc "response round-trip" test_protocol_response_roundtrip;
          tc "hostile payloads rejected" test_protocol_rejects_garbage;
          tc "session name validation" test_protocol_session_names;
        ] );
      ( "scheduler",
        [
          tc "priority order and shedding" test_scheduler_priority_and_shed;
          tc "queue-expired jobs time out" test_scheduler_expired_in_queue;
          tc "budget fairness" test_scheduler_fairness_by_budget;
        ] );
      ( "watchdog",
        [
          tc "eviction planning" test_watchdog_evictions;
          tc "retry-after hint" test_watchdog_retry_after;
        ] );
      ("session", [ tc "persistence round-trip" test_session_persistence ]);
      ( "daemon",
        [
          tc "lifecycle" test_daemon_lifecycle;
          tc "structured errors" test_daemon_unknown_session_and_circuit;
          tc "deadline expiry rolls back" test_daemon_deadline_rollback;
          tc "backpressure under concurrent clients" test_daemon_backpressure;
          tc "concurrent approx is busy" test_daemon_busy_approx;
          tc "dispatch fault injection" test_daemon_dispatch_fault;
          tc "malformed-frame fuzz" test_daemon_malformed_fuzz;
          tc "kill -9 and resume, bit-identical" test_daemon_kill_and_resume;
        ] );
    ]
