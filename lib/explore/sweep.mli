(** The corpus sweep: one flow per (benchmark, metric, budget) point,
    anytime Pareto fronts on disk, resumable and shardable.

    Determinism contract (the subsystem's reason to exist): the final
    front files of a sweep directory are {e byte-identical} however the
    sweep was executed — any [--jobs], any [--shards] split across
    processes or machines sharing the directory tree, killed at any
    instant and resumed with {e different} settings.  It holds because

    - the work list is canonical: fixed by the manifest (which
      supersedes the command line on resume), ordered ladder-major,
      benchmark, then ascending budget;
    - each point's result is a pure function of the manifest and its
      index — the flow runs with [jobs = 1], seed [manifest.seed +
      index], and no wall-clock budget;
    - completed points persist atomically, so progress is a {e set} of
      indices, and {!Store.write_fronts} + {!Front}'s canonical
      antichain make the fronts a function of that set alone. *)

type spec = {
  dir : string;
  benchmarks : string list;
  ladders : Ladder.t list;
  seed : int;
  eval_rounds : int;
  max_iters : int;  (** per-point cap on accepted LACs *)
  shards : int;
  shard_id : int;
  jobs : int;  (** concurrent points in this process; 0 = core count *)
  distr : Errest.Distr.t;
      (** input distribution for every point's error measurement; an
          enumerated distribution must match each benchmark's PI count
          (validated before any point runs) *)
}

type item = {
  index : int;
  bench : string;
  metric : Errest.Metrics.kind;
  budget : float;
}

type progress = {
  manifest : Store.manifest;  (** the effective (possibly resumed) one *)
  total : int;  (** corpus-wide points *)
  already_done : int;  (** found complete on entry *)
  owned : int;  (** points this shard is responsible for *)
  ran : int;  (** points this invocation executed *)
}

val run : ?log:(string -> unit) -> spec -> (progress, string) result
(** Execute this shard's missing points and rebuild the fronts after
    every completed flow (and once on exit, so a fully-resumed
    invocation still refreshes them).  [?log] receives one progress line
    per executed point.  Errors (unknown benchmark, bad shard spec, a
    resumed manifest naming benchmarks the suite lacks) are returned,
    not raised. *)
