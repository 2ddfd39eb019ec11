(** Deterministic fault injection for resilience testing.

    A {!plan} (carried in {!Config.t}) names exact flow iterations at which
    the runtime deliberately misbehaves, so tests can prove that each
    recovery path — guard rollback, LAC quarantine, exception containment,
    journal fallback — actually fires.  With the default empty plan every
    hook below is a no-op and costs one list scan per iteration. *)

exception Injected of string
(** Raised by the flow at a [Raise_at] site; also usable by tests. *)

exception Killed
(** Raised at a [Kill_after] site.  The flow deliberately does NOT recover
    from this one: it simulates an abrupt process death for kill-and-resume
    tests, escaping past all guards (the journal on disk stays valid). *)

type kind =
  | Flip_signatures of { iteration : int; bit : int }
      (** Flip bit [bit] of every node's evaluation signature at the given
          iteration — a soft-error model that silently skews the error
          predictions of all LAC candidates scored that iteration. *)
  | Corrupt_lac of { iteration : int }
      (** Replace the chosen LAC's resubstitution function with a constant
          before it is applied, modeling a buggy ISOP/factoring step: the
          prediction was made for the true function, the graph gets the
          wrong one. *)
  | Raise_at of { iteration : int }
      (** Raise {!Injected} mid-iteration. *)
  | Kill_after of { applied : int }
      (** Raise {!Killed} at the top of the first iteration with at least
          [applied] accepted LACs. *)
  | Io_short_read of { nth : int }
      (** The [nth] framed socket receive on a daemon connection stops
          mid-payload, as if the peer stalled and the read timed out — the
          decoder must treat the partial frame as malformed, not block. *)
  | Io_eof_mid_frame of { nth : int }
      (** The [nth] framed socket send truncates after the header and drops
          the connection, modeling a peer dying mid-frame. *)
  | Io_delay_write of { nth : int; ms : int }
      (** The [nth] framed socket send sleeps [ms] milliseconds before
          writing, modeling a slow client that must not wedge the daemon. *)

type plan = kind list

val none : plan

val flip_signatures : plan -> iteration:int -> int option
(** The bit to flip this iteration, if any. *)

val corrupt_lac : plan -> iteration:int -> bool

val should_raise : plan -> iteration:int -> bool

val should_kill : plan -> applied:int -> bool

(** {1 Socket / IO fault hooks}

    Consulted by the [lib/serve] transport with a per-connection operation
    counter; [nth] counts framed receives (for reads) or sends (for writes)
    on one connection, starting at 1. *)

val io_short_read : plan -> nth:int -> bool
val io_eof_mid_frame : plan -> nth:int -> bool

val io_delay_write : plan -> nth:int -> int option
(** Milliseconds to sleep before the [nth] send, if any. *)

(** {1 Plan spec strings}

    The [--fault-spec] grammar: comma-separated items, each
    [name\@arg] or [name\@arg:arg] —
    [flip-sigs\@ITER:BIT], [corrupt-lac\@ITER], [raise\@ITER],
    [kill\@APPLIED], [short-read\@NTH], [eof-mid-frame\@NTH],
    [delay-write\@NTH:MS].  The empty string is {!none}. *)

val plan_of_string : string -> plan
(** Raises [Failure] on an unparseable spec. *)
