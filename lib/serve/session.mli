(** Resident, crash-resumable daemon sessions.

    A session keeps everything expensive warm across requests: the parsed
    original AIG, a fixed evaluation pattern set with the
    golden PO signatures already simulated, and the current approximate
    circuit with a per-revision metrics cache.  A warm metric re-simulates
    only the approximate side (and only when the circuit changed since the
    last ask) — this is the resident speedup the daemon exists for.

    Every state change is persisted under the session's directory before it
    is acknowledged:

    {v
    <state-dir>/<name>/
      manifest       key/value lines (atomic replace)
      original.aag   loaded circuit, immutable
      current.aag    latest approximation (absent until one exists)
      inflight       encoded Approx request while queued/running
      journal/       Core.Journal run directory of the in-flight approx
    v}

    The [inflight] marker plus the flow journal make [kill -9] recoverable:
    {!scan} + {!load_dir} + {!resume_inflight} at daemon startup replays
    every interrupted approximation to the exact circuit an uninterrupted
    run would have produced (the flow's determinism contract). *)

type t = {
  name : string;
  dir : string;
  circuit : string;  (** name given at load time (["-"] for shipped AIGER) *)
  original : Aig.Graph.t;
  eval_pats : Logic.Bitvec.t array;  (** fixed evaluation pattern set *)
  golden : Logic.Bitvec.t array;  (** PO signatures of [original] on it *)
  mutable current : Aig.Graph.t;
  mutable revision : int;  (** bumped on every [set_current] *)
  mutable priority : int;
  mutable last_used : float;  (** [Parallel.Clock.now_s] of the last touch *)
  mutable budget_s : float;  (** executor seconds consumed by this session *)
  mutable applied_total : int;  (** accepted LACs across all approx runs *)
  mutable busy : bool;  (** an approx is queued or running *)
  mutable metric_cache : (Errest.Metrics.kind * int * float) list;
      (** (kind, revision, value) memo for warm metrics *)
}

val eval_rounds : int
(** Size of the resident evaluation sample (exhaustive when the PI count
    allows it, Monte-Carlo otherwise). *)

val create :
  state_dir:string ->
  name:string ->
  circuit:string ->
  graph:Aig.Graph.t ->
  priority:int ->
  t
(** Build and persist a fresh session (replacing any previous one of the
    same name on disk). *)

val load_dir : state_dir:string -> name:string -> t
(** Reload a persisted session; raises [Failure] if its directory is not a
    usable session. *)

val scan : state_dir:string -> string list
(** Names of the sessions persisted under [state_dir], sorted. *)

val journal_dir : t -> string

val set_current : t -> Aig.Graph.t -> unit
(** Commit a new approximate circuit: bump the revision, drop the metric
    cache, persist [current.aag] and the manifest. *)

val rollback_to_snapshot : t -> unit
(** Roll [current] back to the journal's last accepted checkpoint (or the
    original when none exists) — the deadline-expiry recovery path. *)

val record_inflight : t -> Protocol.request -> unit
(** Persist the request about to run so a crash can replay it. *)

val clear_inflight : t -> unit

val inflight : t -> Protocol.request option
(** The persisted in-flight request, if any (daemon startup). *)

val metric : t -> Errest.Metrics.kind -> float
(** Warm metric of [current] against [original] on the resident sample;
    cached per revision. *)

val touch : t -> unit
val resident_bytes : t -> int
(** Rough resident footprint (graphs + signatures), for watermarks. *)

val save_manifest : t -> unit
val info : t -> (string * string) list
(** Status lines: ANDs, revision, priority, budget, residency. *)

val destroy : t -> unit
(** Remove the session's directory tree (evict). *)
