(** The [alsrac serve] daemon: a resident ALS service on a Unix-domain
    socket.

    One process holds every session's parsed AIG and simulation state
    warm ({!Session}), so repeated requests skip the cold-start cost
    of a CLI invocation.  Robustness properties (see DESIGN.md §11):

    - {b Deadlines}: every [approx] runs under an absolute deadline,
      enforced by cooperative cancellation inside the flow and the pool; a
      timed-out request gets a structured [Timeout] error and its session
      rolls back to the journal's last accepted checkpoint — a worker is
      never killed or wedged.
    - {b Backpressure}: the request queue is bounded ({!Scheduler});
      overflow is answered with [Overloaded] plus a retry-after hint, or
      sheds a lower-priority queued request ([Shedding]).
    - {b Graceful degradation}: past the resident-memory high watermark the
      coldest idle sessions are evicted ({!Watchdog}) until under the low
      watermark.
    - {b Crash-resume}: sessions persist under [state_dir]; at startup,
      every session whose [inflight] marker survived a kill is replayed —
      via {!Core.Flow.resume} when the flow journal has a checkpoint —
      before the socket opens, reaching the exact circuit an uninterrupted
      run produces.
    - {b Hostile input}: frames are length- and checksum-guarded
      ({!Transport}); a connection accumulating 3 malformed payloads is
      quarantined (closed).  [fault] injects socket/decode/dispatch faults
      for the resilience tests. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  state_dir : string;  (** session persistence root *)
  jobs : int;  (** resident worker-pool size (0 = detect) *)
  max_queue : int;  (** bound on queued requests *)
  max_resident_mb : int;  (** high watermark; low is 3/4 of it *)
  default_deadline_s : float;  (** per-request budget when unspecified *)
  read_timeout_s : float;  (** per-connection frame-read deadline *)
  max_sessions : int;
  fault : Core.Fault.plan;  (** injected socket/dispatch faults (tests) *)
  log : bool;  (** chatter on stderr *)
}

val default : socket:string -> state_dir:string -> config
(** jobs 1, queue 32, 512 MiB, 30s deadline, 30s read timeout, 64
    sessions, no faults, quiet. *)

val run : config -> unit
(** Resume persisted sessions, open the socket, and serve until a
    [shutdown] request or SIGTERM/SIGINT.  Blocks; returns after a clean
    drain.  Raises [Failure] if the socket or state dir is unusable. *)
