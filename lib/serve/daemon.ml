type config = {
  socket : string;
  state_dir : string;
  jobs : int;
  max_queue : int;
  max_resident_mb : int;
  default_deadline_s : float;
  read_timeout_s : float;
  max_sessions : int;
  fault : Core.Fault.plan;
  log : bool;
}

let default ~socket ~state_dir =
  {
    socket;
    state_dir;
    jobs = 1;
    max_queue = 32;
    max_resident_mb = 512;
    default_deadline_s = 30.0;
    read_timeout_s = 30.0;
    max_sessions = 64;
    fault = Core.Fault.none;
    log = false;
  }

type counters = {
  mutable requests : int;
  mutable timeouts : int;
  mutable overloads : int;
  mutable shed : int;
  mutable malformed : int;
  mutable evictions : int;
  mutable resumed : int;
  mutable service_total_s : float;
  mutable service_n : int;
}

type daemon = {
  cfg : config;
  sched : Scheduler.t;
  pool : Parallel.Pool.t;
  sessions : (string, Session.t) Hashtbl.t;
  mutex : Mutex.t;  (* sessions table + counters + stop flag *)
  counters : counters;
  started : float;
  mutable stop : bool;
}

let logf d fmt =
  if d.cfg.log then
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "[serve %.3f] %s\n%!" (Parallel.Clock.now_s () -. d.started) s)
      fmt
  else Printf.ksprintf (fun _ -> ()) fmt

let locked d f =
  Mutex.lock d.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock d.mutex) f

let err ?retry_after_s code detail =
  Protocol.Err { code; detail; retry_after_s }

let mean_service d =
  if d.counters.service_n = 0 then 0.25
  else d.counters.service_total_s /. float_of_int d.counters.service_n

let overloaded_reply d =
  let retry =
    Watchdog.retry_after ~queue_depth:(Scheduler.depth d.sched)
      ~mean_service_s:(locked d (fun () -> mean_service d))
  in
  err ~retry_after_s:retry Protocol.Overloaded "request queue full"

(* ---------- Memory watermarks ---------- *)

let resident_total d =
  Hashtbl.fold (fun _ s acc -> acc + Session.resident_bytes s) d.sessions 0

(* Executor thread only (sessions are mutated there), so reading session
   fields without [d.mutex] is safe for the busy/bytes snapshot. *)
let enforce_watermarks d =
  let high = d.cfg.max_resident_mb * 1024 * 1024 in
  let low = high * 3 / 4 in
  let candidates, resident =
    locked d (fun () ->
        ( Hashtbl.fold
            (fun name s acc ->
              {
                Watchdog.name;
                last_used = s.Session.last_used;
                busy = s.Session.busy;
                bytes = Session.resident_bytes s;
              }
              :: acc)
            d.sessions [],
          resident_total d ))
  in
  let plan =
    Watchdog.plan_evictions ~candidates ~resident_bytes:resident
      ~high_watermark:high ~low_watermark:low
  in
  List.iter
    (fun name ->
      locked d (fun () ->
          match Hashtbl.find_opt d.sessions name with
          | Some s when not s.Session.busy ->
              Hashtbl.remove d.sessions name;
              Session.destroy s;
              d.counters.evictions <- d.counters.evictions + 1;
              logf d "evicted session %s (memory watermark)" name
          | _ -> ()))
    plan

(* ---------- Request execution (executor thread) ---------- *)

let session_or_err d name f =
  match locked d (fun () -> Hashtbl.find_opt d.sessions name) with
  | None -> err Protocol.No_session (Printf.sprintf "no session %S" name)
  | Some s ->
      Session.touch s;
      f s

let flow_config (p : Protocol.approx_params) ~jobs =
  let base = Core.Config.default ~metric:p.metric ~threshold:p.threshold in
  {
    base with
    Core.Config.seed = p.seed;
    eval_rounds = p.eval_rounds;
    max_iters = p.max_iters;
    jobs;
  }

let approx_reply (s : Session.t) (report : Core.Flow.report) =
  Protocol.Ok
    ( [
        ("session", s.Session.name);
        ("applied", string_of_int report.Core.Flow.applied);
        ("input-ands", string_of_int report.Core.Flow.input_ands);
        ("output-ands", string_of_int report.Core.Flow.output_ands);
        ("est-error", Printf.sprintf "%.6g" report.Core.Flow.final_est_error);
        ("stop-reason", Core.Flow.stop_reason_to_string report.Core.Flow.stop_reason);
        ("resumed", string_of_bool report.Core.Flow.resumed);
        ("wall-s", Printf.sprintf "%.3f" report.Core.Flow.wall_s);
      ],
      None )

let run_approx d (s : Session.t) (req : Protocol.request)
    (params : Protocol.approx_params) ~deadline =
  let cancel () = d.stop || Parallel.Clock.now_s () > deadline in
  let config = flow_config params ~jobs:d.cfg.jobs in
  Session.record_inflight s req;
  let t0 = Parallel.Clock.now_s () in
  let finish_budget () =
    let dt = Parallel.Clock.now_s () -. t0 in
    s.Session.budget_s <- s.Session.budget_s +. dt;
    Session.save_manifest s;
    locked d (fun () ->
        d.counters.service_total_s <- d.counters.service_total_s +. dt;
        d.counters.service_n <- d.counters.service_n + 1)
  in
  match
    Core.Flow.run ~journal:(Session.journal_dir s) ~cancel ~pool:d.pool ~config
      s.Session.original
  with
  | g, report ->
      finish_budget ();
      Session.set_current s g;
      s.Session.applied_total <- s.Session.applied_total + report.Core.Flow.applied;
      Session.clear_inflight s;
      Session.save_manifest s;
      approx_reply s report
  | exception Core.Flow.Cancelled ->
      finish_budget ();
      (* The contract: a timed-out request never leaves a half-applied
         circuit behind.  Roll back to the journal's last accepted
         checkpoint and report a structured timeout. *)
      Session.rollback_to_snapshot s;
      Session.clear_inflight s;
      logf d "approx on %s timed out; rolled back" s.Session.name;
      err Protocol.Timeout
        (Printf.sprintf "deadline expired after %.1fs; session rolled back"
           (Parallel.Clock.now_s () -. t0))
  | exception e ->
      finish_budget ();
      (* Contained failure: the session keeps its last committed circuit;
         the errored request is not replayed at restart. *)
      Session.clear_inflight s;
      err Protocol.Internal (Printexc.to_string e)

let run_cec (s : Session.t) =
  let verdict =
    Verify.Cec.run ~effort:Verify.Cec.Fast s.Session.original s.Session.current
  in
  let kvs =
    match verdict with
    | Verify.Cec.Equivalent -> [ ("verdict", "equivalent") ]
    | Verify.Cec.Inequivalent cex ->
        [ ("verdict", "inequivalent"); ("po", string_of_int cex.Verify.Cec.po) ]
    | Verify.Cec.Undecided why -> [ ("verdict", "undecided"); ("why", why) ]
  in
  Protocol.Ok (("session", s.Session.name) :: kvs, None)

let run_load d ~session ~circuit ~graph ~priority =
  match
    match graph with
    | Some bytes -> (
        match Circuit_io.Aiger.parse bytes with
        | g -> Result.Ok g
        | exception _ -> Result.Error "unparseable AIGER payload")
    | None -> (
        match Circuits.Suite.find circuit with
        | Some e -> Result.Ok (e.Circuits.Suite.build ())
        | None -> Result.Error (Printf.sprintf "unknown circuit %S" circuit))
  with
  | Result.Error detail -> err Protocol.Bad_request detail
  | Result.Ok g ->
      let table_full =
        locked d (fun () ->
            (not (Hashtbl.mem d.sessions session))
            && Hashtbl.length d.sessions >= d.cfg.max_sessions)
      in
      if table_full then
        err ~retry_after_s:5.0 Protocol.Overloaded "session table full"
      else begin
        (match locked d (fun () -> Hashtbl.find_opt d.sessions session) with
        | Some old -> Session.destroy old
        | None -> ());
        let s =
          Session.create ~state_dir:d.cfg.state_dir ~name:session ~circuit
            ~graph:g ~priority
        in
        locked d (fun () -> Hashtbl.replace d.sessions session s);
        enforce_watermarks d;
        logf d "loaded session %s (%s, %d ANDs)" session circuit
          (Aig.Graph.num_ands g);
        Protocol.Ok (("session", session) :: Session.info s, None)
      end

let execute d (req : Protocol.request) ~deadline =
  match req with
  | Protocol.Load { session; circuit; graph; priority } ->
      run_load d ~session ~circuit ~graph ~priority
  | Protocol.Approx { session; params; _ } ->
      session_or_err d session (fun s -> run_approx d s req params ~deadline)
  | Protocol.Metrics { session; metric } ->
      session_or_err d session (fun s ->
          let v = Session.metric s metric in
          Protocol.Ok
            ( [
                ("session", session);
                ("metric", Errest.Metrics.kind_to_string metric);
                ("value", Printf.sprintf "%.6g" v);
                ( "rounds",
                  string_of_int
                    (if Array.length s.Session.eval_pats = 0 then 0
                     else Logic.Bitvec.length s.Session.eval_pats.(0)) );
              ],
              None ))
  | Protocol.Cec { session } -> session_or_err d session (fun s -> run_cec s)
  | Protocol.Get { session } ->
      session_or_err d session (fun s ->
          Protocol.Ok
            ( [
                ("session", session);
                ("ands", string_of_int (Aig.Graph.num_ands s.Session.current));
              ],
              Some (Circuit_io.Aiger.graph_to_string s.Session.current) ))
  | Protocol.Ping | Protocol.Status | Protocol.Evict _ | Protocol.Shutdown ->
      (* handled inline by the connection thread *)
      err Protocol.Internal "not a queued request"

(* ---------- Inline requests (connection threads) ---------- *)

let status_reply d =
  locked d (fun () ->
      let c = d.counters in
      let kvs =
        [
          ("uptime-s", Printf.sprintf "%.3f" (Parallel.Clock.now_s () -. d.started));
          ("sessions", string_of_int (Hashtbl.length d.sessions));
          ("queue-depth", string_of_int (Scheduler.depth d.sched));
          ("max-queue", string_of_int (Scheduler.max_queue d.sched));
          ("resident-bytes", string_of_int (resident_total d));
          ("requests", string_of_int c.requests);
          ("timeouts", string_of_int c.timeouts);
          ("overloads", string_of_int c.overloads);
          ("shed", string_of_int c.shed);
          ("malformed", string_of_int c.malformed);
          ("evictions", string_of_int c.evictions);
          ("resumed-sessions", string_of_int c.resumed);
          ("jobs", string_of_int (Parallel.Pool.size d.pool));
        ]
      in
      let per_session =
        Hashtbl.fold
          (fun name s acc ->
            let line =
              Session.info s
              |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
              |> String.concat " "
            in
            (("session", Printf.sprintf "%s %s" name line)) :: acc)
          d.sessions []
        |> List.sort compare
      in
      Protocol.Ok (kvs @ per_session, None))

let evict_reply d name =
  locked d (fun () ->
      match Hashtbl.find_opt d.sessions name with
      | None -> err Protocol.No_session (Printf.sprintf "no session %S" name)
      | Some s when s.Session.busy ->
          err Protocol.Busy "session has queued or running work"
      | Some s ->
          Hashtbl.remove d.sessions name;
          Session.destroy s;
          Protocol.Ok ([ ("evicted", name) ], None))

(* ---------- Connection handling ---------- *)

let count_response d (resp : Protocol.response) =
  locked d (fun () ->
      let c = d.counters in
      c.requests <- c.requests + 1;
      match resp with
      | Protocol.Err { code = Protocol.Timeout; _ } -> c.timeouts <- c.timeouts + 1
      | Protocol.Err { code = Protocol.Overloaded; _ } ->
          c.overloads <- c.overloads + 1
      | Protocol.Err { code = Protocol.Shedding; _ } -> c.shed <- c.shed + 1
      | _ -> ())

let handle_request d (req : Protocol.request) =
  match req with
  | Protocol.Ping -> Protocol.Ok ([ ("pong", "1") ], None)
  | Protocol.Status -> status_reply d
  | Protocol.Evict { session } -> evict_reply d session
  | Protocol.Shutdown ->
      locked d (fun () -> d.stop <- true);
      logf d "shutdown requested";
      Protocol.Ok ([ ("stopping", "1") ], None)
  | Protocol.Load _ | Protocol.Metrics _ | Protocol.Cec _ | Protocol.Get _
  | Protocol.Approx _ -> (
      let session, priority, deadline_s =
        match req with
        | Protocol.Load { session; priority; _ } -> (session, priority, None)
        | Protocol.Approx { session; params = _; deadline_s } ->
            (session, 0, deadline_s)
        | Protocol.Metrics { session; _ }
        | Protocol.Cec { session }
        | Protocol.Get { session } -> (session, 0, None)
        | _ -> assert false
      in
      let priority =
        match
          locked d (fun () -> Hashtbl.find_opt d.sessions session)
        with
        | Some s -> s.Session.priority
        | None -> priority
      in
      let deadline =
        Parallel.Clock.now_s ()
        +. Option.value deadline_s ~default:d.cfg.default_deadline_s
      in
      (* At most one approx per session in flight: Busy beats queueing a
         duplicate that would fight over the same journal. *)
      let busy_guard =
        match req with
        | Protocol.Approx _ -> (
            locked d (fun () ->
                match Hashtbl.find_opt d.sessions session with
                | None -> `No_session
                | Some s when s.Session.busy -> `Busy
                | Some s ->
                    s.Session.busy <- true;
                    `Claimed (Some s)))
        | _ -> `Claimed None
      in
      match busy_guard with
      | `No_session ->
          err Protocol.No_session (Printf.sprintf "no session %S" session)
      | `Busy -> err Protocol.Busy "approx already queued or running"
      | `Claimed claimed -> (
          let release () =
            match claimed with
            | Some s -> s.Session.busy <- false
            | None -> ()
          in
          let budget =
            match
              locked d (fun () -> Hashtbl.find_opt d.sessions session)
            with
            | Some s -> s.Session.budget_s
            | None -> 0.0
          in
          match
            Scheduler.submit d.sched ~session ~priority ~budget ~deadline
              ~work:(fun () -> execute d req ~deadline)
          with
          | `Overloaded ->
              release ();
              overloaded_reply d
          | `Queued ticket ->
              let resp = Scheduler.await ticket in
              release ();
              resp))

let connection_loop d fd =
  let recv_n = ref 0 and send_n = ref 0 and strikes = ref 0 in
  let faults = d.cfg.fault in
  let send resp =
    incr send_n;
    Transport.send ~faults ~nth:!send_n fd (Protocol.encode_response resp)
  in
  let rec loop () =
    incr recv_n;
    match
      Transport.recv ~faults ~nth:!recv_n ~timeout_s:d.cfg.read_timeout_s fd
    with
    | exception Transport.Closed -> ()
    | exception Transport.Timeout -> logf d "connection read timeout"
    | exception Transport.Malformed m ->
        (* Frame-level damage: the stream position is unknowable, so the
           connection is quarantined immediately. *)
        locked d (fun () ->
            d.counters.malformed <- d.counters.malformed + 1);
        logf d "malformed frame (%s); dropping connection" m;
        (try send (err Protocol.Bad_request m) with _ -> ())
    | payload -> (
        match Protocol.decode_request payload with
        | exception Failure m ->
            (* Payload-level damage: framing is intact, so we can answer —
               but three strikes quarantines the connection. *)
            locked d (fun () ->
                d.counters.malformed <- d.counters.malformed + 1);
            incr strikes;
            (try send (err Protocol.Bad_request m) with _ -> ());
            if !strikes < 3 then loop ()
            else logf d "connection quarantined after %d malformed payloads" !strikes
        | req ->
            let resp =
              (* Dispatch-layer fault hook: an injected failure here must
                 produce a structured error, never a dead connection. *)
              if Core.Fault.should_raise faults ~iteration:!recv_n then
                err Protocol.Internal "injected dispatch fault"
              else
                try handle_request d req
                with e -> err Protocol.Internal (Printexc.to_string e)
            in
            count_response d resp;
            (match (try send resp; true with _ -> false) with
            | true -> if req <> Protocol.Shutdown then loop ()
            | false -> ()))
  in
  (try loop () with _ -> ());
  try Unix.close fd with _ -> ()

(* ---------- Startup resume ---------- *)

let resume_sessions d =
  let names = Session.scan ~state_dir:d.cfg.state_dir in
  List.iter
    (fun name ->
      match Session.load_dir ~state_dir:d.cfg.state_dir ~name with
      | exception Failure m -> logf d "skipping %s: %s" name m
      | s -> (
          Hashtbl.replace d.sessions name s;
          match Session.inflight s with
          | None -> ()
          | Some (Protocol.Approx { params; _ }) ->
              logf d "resuming in-flight approx on %s" name;
              let journal = Session.journal_dir s in
              let has_checkpoint =
                Sys.file_exists (Filename.concat journal "manifest")
              in
              let result =
                try
                  if has_checkpoint then
                    Some (Core.Flow.resume ~pool:d.pool journal)
                  else
                    Some
                      (Core.Flow.run ~journal ~pool:d.pool
                         ~config:(flow_config params ~jobs:d.cfg.jobs)
                         s.Session.original)
                with e ->
                  logf d "resume of %s failed: %s" name (Printexc.to_string e);
                  None
              in
              (match result with
              | Some (g, report) ->
                  Session.set_current s g;
                  s.Session.applied_total <-
                    s.Session.applied_total + report.Core.Flow.applied;
                  d.counters.resumed <- d.counters.resumed + 1
              | None -> ());
              Session.clear_inflight s;
              Session.save_manifest s
          | Some _ -> Session.clear_inflight s))
    names;
  if d.counters.resumed > 0 then
    logf d "resumed %d in-flight session(s)" d.counters.resumed

(* ---------- Main ---------- *)

let run cfg =
  Circuit_io.Atomic_file.mkdir_p cfg.state_dir;
  Parallel.Pool.with_pool ~jobs:(max 1 cfg.jobs) (fun pool ->
      let d =
        {
          cfg;
          sched = Scheduler.create ~max_queue:cfg.max_queue;
          pool;
          sessions = Hashtbl.create 16;
          mutex = Mutex.create ();
          counters =
            {
              requests = 0;
              timeouts = 0;
              overloads = 0;
              shed = 0;
              malformed = 0;
              evictions = 0;
              resumed = 0;
              service_total_s = 0.0;
              service_n = 0;
            };
          started = Parallel.Clock.now_s ();
          stop = false;
        }
      in
      (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
      let on_signal _ = d.stop <- true in
      (match Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) with _ -> ());
      (match Sys.signal Sys.sigint (Sys.Signal_handle on_signal) with _ -> ());
      (* Crash-resume happens before the socket opens: a client that can
         connect always sees fully recovered sessions. *)
      resume_sessions d;
      let listener = Transport.listen ~path:cfg.socket in
      logf d "listening on %s (%d session(s) resident)" cfg.socket
        (Hashtbl.length d.sessions);
      let executor =
        Thread.create
          (fun () ->
            let rec loop () =
              match Scheduler.next d.sched with
              | None -> ()
              | Some job ->
                  let resp =
                    try job.Scheduler.work ()
                    with e -> err Protocol.Internal (Printexc.to_string e)
                  in
                  Scheduler.finish d.sched job resp;
                  loop ()
            in
            loop ())
          ()
      in
      let rec accept_loop () =
        match Transport.accept ~stop:(fun () -> d.stop) listener with
        | None -> ()
        | Some conn ->
            ignore (Thread.create (fun () -> connection_loop d conn) ());
            accept_loop ()
      in
      accept_loop ();
      logf d "draining";
      Scheduler.stop d.sched;
      Thread.join executor;
      (try Unix.close listener with _ -> ());
      (try Unix.unlink cfg.socket with _ -> ());
      logf d "stopped")
