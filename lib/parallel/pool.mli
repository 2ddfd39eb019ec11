(** Domain-based worker pool with per-worker deques and work stealing.

    A pool of [jobs] lanes: lane 0 is the submitting (caller) domain, lanes
    1..jobs-1 are spawned worker domains.  Each lane owns a deque — the
    owner pushes/pops at the bottom, idle lanes steal from the top of other
    lanes' deques.  [jobs = 1] spawns no domains and runs every task eagerly
    on the caller, which is exactly the sequential semantics the
    deterministic call sites fall back to.

    The pool itself makes no ordering promises; determinism is provided one
    level up by {!Chunk} (fixed chunk boundaries, ordered reduction).

    {b Await helps}: a lane blocked in {!await} executes pending pool tasks
    itself, so tasks may freely submit and await sub-tasks on the same pool
    without deadlock.

    {b Exceptions} raised by a task are captured and re-raised (with the
    original backtrace) by {!await}; a failed task never kills a worker and
    the pool remains usable afterwards. *)

type t

type 'a future

exception Cancelled
(** Failure value of a task that was skipped because the pool's
    {!set_should_stop} hook fired before the task body ran; re-raised by
    {!await} on the skipped task's future. *)

type stat = {
  worker : int;  (** lane index; 0 is the caller *)
  tasks : int;  (** tasks this lane executed *)
  steals : int;  (** tasks it took from another lane's deque *)
  busy_ns : int64;  (** wall time spent executing tasks *)
  idle_ns : int64;  (** wall time spent parked waiting for work *)
}

val cpu_count : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs] is clamped to
    [1..64]); [jobs = 0] means {!cpu_count}. *)

val size : t -> int
(** Total lanes, caller included. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Await all outstanding futures first;
    tasks still queued at shutdown are dropped.  Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)

val async : t -> (unit -> 'a) -> 'a future
(** Submit a task to the calling lane's deque (lane 0 when the caller is not
    a pool member). *)

val await : t -> 'a future -> 'a
(** Wait for the result, executing other pool tasks while pending.
    Re-raises the task's exception if it failed. *)

val run : t -> (unit -> 'a) -> 'a
(** [await t (async t f)]. *)

(** {1 Cooperative cancellation}

    Without a hook, a task enqueued on the pool always runs to completion,
    even after its caller has abandoned the result.  Installing a
    [should_stop] hook makes abandonment observable: the hook is consulted
    immediately before every task body — for {!Chunk} computations that is
    exactly the chunk boundaries — and once it returns [true], every
    not-yet-started task fails with {!Cancelled} instead of executing.
    Tasks already mid-body are never interrupted (cancellation is
    cooperative, a wedged task is a bug in the task), so the pool is always
    in a consistent state afterwards and stays fully usable: clear the hook
    and submit new work. *)

val set_should_stop : t -> (unit -> bool) option -> unit
(** Install ([Some f]) or clear ([None]) the cancellation hook.  [f] must be
    cheap and domain-safe: it is called concurrently from every lane.  An
    exception escaping [f] counts as "stop". *)

val cancelled : t -> bool
(** Evaluate the current hook ([false] when none is installed).  Exposed so
    sequential fallback paths ({!Chunk} without a multi-lane pool) can honour
    the same chunk-boundary contract. *)

val stats : t -> stat array
(** Per-lane counters since creation.  A task is counted before its future
    resolves, so a read after the last {!await} sees every awaited task. *)

val pp_stats : Format.formatter -> stat array -> unit
(** Multi-line, one worker per line: tasks, steals, busy/idle seconds. *)

val summary : stat array -> string
(** One-line aggregate: worker count, total tasks/steals, total busy
    seconds. *)
