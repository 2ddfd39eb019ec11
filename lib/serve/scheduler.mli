(** Bounded request queue with explicit backpressure.

    Connection threads {!submit} work; the single executor thread pulls it
    with {!next} and completes it with {!finish}.  The queue never grows
    past [max_queue]:

    - a full queue sheds its lowest-priority entry when the newcomer
      outranks it (the shed request's client gets a [Shedding] error), and
    - rejects the newcomer with [`Overloaded] otherwise — the daemon turns
      that into an [Overloaded] reply with a retry-after hint.

    Selection order at {!next}: highest priority first, then the session
    that has consumed the least executor budget (fairness), then FIFO.
    Entries whose deadline expired while queued are completed with a
    [Timeout] error at dequeue time, never executed. *)

type t

type job = {
  seq : int;
  session : string;
  priority : int;
  enqueued : float;
  deadline : float;  (** absolute, on {!Parallel.Clock.now_s}; [infinity] = none *)
  budget : float;  (** owning session's consumed budget at enqueue *)
  work : unit -> Protocol.response;
}

type ticket
(** A submitted job's completion handle. *)

val create : max_queue:int -> t

val submit :
  t ->
  session:string ->
  priority:int ->
  budget:float ->
  deadline:float ->
  work:(unit -> Protocol.response) ->
  [ `Queued of ticket | `Overloaded ]
(** Raises [Invalid_argument] after {!stop}. *)

val await : ticket -> Protocol.response
(** Block until the job completes (executor, shed, expiry, or drain). *)

val next : t -> job option
(** Executor: block for the next runnable job; [None] once stopped and
    drained.  Expired entries are completed with [Timeout] errors here. *)

val finish : t -> job -> Protocol.response -> unit
(** Deliver the executor's result to the waiting client. *)

val depth : t -> int
val max_queue : t -> int

val stop : t -> unit
(** Reject new submissions and complete every queued job with an
    [Internal "daemon stopping"] error; {!next} then returns [None]. *)
