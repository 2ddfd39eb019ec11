(** Journaled checkpoints for the ALSRAC flow.

    A journal is a run directory holding:

    - [manifest] — format version plus the full serialized {!Config.t}
      (written once, atomically);
    - [original.aag] — the compacted input circuit, from which the golden
      evaluation signatures are re-derived on resume;
    - [checkpoint] / [checkpoint.prev] — the two most recent flow snapshots.

    After every accepted LAC the flow calls {!record}, which rotates
    [checkpoint] to [checkpoint.prev] and atomically writes a new snapshot:
    the complete loop state (RNG stream position, dynamic simulation round
    [N], patience counters, accepted-event list, quarantine set) followed by
    the current graph as checksummed AIGER text and an [end] marker.  Because
    every write is write-to-temp + rename and the graph section carries a
    byte count and checksum, {!load} can always distinguish a complete
    snapshot from a torn one, and falls back — newest checkpoint, previous
    checkpoint, fresh start from [original.aag] — rather than resuming from
    corrupt state.

    Checkpoints capture the RNG state at the end of the accepting iteration,
    and the flow draws randomness only from that single stream, so a resumed
    run replays the exact iteration sequence the uninterrupted run would
    have produced: same final circuit, same report counters. *)

type event = {
  iteration : int;
  target : int;
  est_error : float;
  ands_after : int;
  rounds : int;
}
(** One accepted LAC; re-exported by {!Flow} as its event type. *)

type state = {
  rng_state : int64;  (** splitmix64 stream position *)
  rounds : int;  (** dynamic simulation round [N] *)
  patience : int;
  shrinks_at_floor : int;
  applied : int;
  iteration : int;
  accepts_since_full : int;  (** Compress2 cheap/full pass schedule *)
  last_error : float;
  guard_rejects : int;
  recovered_exns : int;
  quarantined : int list;  (** signature hashes of quarantined targets *)
  policy_state : string;
      (** always [""]: checkpoints keep an empty [policy_state] line *)
  events : event list;  (** newest first, as the flow accumulates them *)
}

type t
(** An open journal (run directory) being written. *)

val create : dir:string -> config:Config.t -> original:Aig.Graph.t -> t
(** Initialize a run directory (created if missing): write the manifest and
    the original circuit, and remove checkpoints left by any previous run.
    Raises [Failure] if the directory cannot be created. *)

val dir : t -> string

val reopen : string -> t
(** Open an existing journal for further {!record}s (used by a resumed run);
    unlike {!create}, existing checkpoints are kept.  Raises [Failure] if
    the directory or its manifest is missing. *)

val record : t -> state -> Aig.Graph.t -> unit
(** Atomically persist a snapshot of the loop state and current graph,
    keeping the previous snapshot as fallback. *)

type resume = {
  config : Config.t;  (** deserialized from the manifest *)
  original : Aig.Graph.t;
  graph : Aig.Graph.t;  (** last checkpointed graph, or [original] *)
  state : state option;  (** [None]: no usable checkpoint — start fresh *)
  degraded : string option;
      (** set when a corrupt/torn checkpoint was skipped over *)
}

val load : string -> resume
(** Read a journal directory back.  Corrupt or truncated checkpoints are
    tolerated (see module description); a missing or corrupt manifest or
    original circuit raises [Failure] — without them there is nothing
    meaningful to resume. *)

(** {1 Config serialization} (exposed for tests) *)

val config_to_string : Config.t -> string
(** One [key value] line per field.  The {!Config.t.fault} plan is not
    persisted: injected faults belong to a process, not to the run.  The
    policy line always reads [policy greedy]. *)

val config_of_string : string -> Config.t
(** Inverse of {!config_to_string}; unknown keys raise [Failure], as does
    any policy other than [greedy] (the message names it). *)
