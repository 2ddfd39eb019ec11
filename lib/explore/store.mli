(** On-disk state of a corpus sweep: the layer that makes exploration
    anytime and crash-resumable.

    A sweep directory holds:

    - [manifest] — the sweep's identity (benchmarks, ladders, seed, flow
      knobs), written once, atomically.  On resume the
      manifest {e supersedes} the command line, exactly like the flow
      journal: a sweep's work list may never drift between restarts.
    - [points/point-NNNNNN] — one file per completed (benchmark, metric,
      budget) flow, written atomically when the flow finishes.  The
      completed set IS the sweep's progress: resume scans it and runs
      only the missing indices, so a [kill -9] mid-sweep loses at most
      the points that were in flight.
    - [fronts/] — Pareto front files, rebuilt from the completed points
      after every finished flow.  Fronts are a pure function of the
      completed {e set} (point results are deterministic, and
      {!Front.t} is canonical), so once all points exist the front files
      are byte-identical no matter how execution was sharded, paralleled,
      killed, or resumed.  Per-point [runtime_s] is recorded for
      reporting but deliberately kept out of every front file. *)

type manifest = {
  benchmarks : string list;  (** suite names, in sweep order *)
  ladders : Ladder.t list;
  seed : int;  (** base seed; point [i] runs the flow with [seed + i] *)
  eval_rounds : int;
  max_iters : int;
  distr : Errest.Distr.t;
      (** input distribution every point's flow measures error under;
          persisted with {!Errest.Distr.to_string} (manifests predating
          the field read back as [Unif]) *)
}

type result = {
  index : int;  (** position in the canonical work list *)
  bench : string;
  metric : Errest.Metrics.kind;
  budget : float;  (** the flow's error threshold *)
  est_error : float;  (** the flow's final sampled error *)
  orig_ands : int;
  ands : int;
  orig_luts : int;
  luts : int;
  orig_lut_depth : int;
  lut_depth : int;
  orig_area : float;
  area : float;
  orig_delay : float;
  delay : float;
  applied : int;  (** accepted LACs *)
  scored : int;
      (** candidates the scoring kernel evaluated ([Flow.report.scoring]);
          candidates whose error the flow's memo already held are not
          counted (selection-efficiency counter) *)
  runtime_s : float;  (** CPU time; reporting only, never in fronts *)
}

val init : dir:string -> manifest -> manifest
(** Create the directory layout and persist [manifest] — unless a
    manifest already exists, in which case it is loaded and returned
    instead (resume semantics: disk wins).  Also removes [*.tmp.*]
    debris stranded by a process killed mid-[Atomic_file.write], so a
    resumed sweep's directories list only completed artifacts.  Raises
    [Failure] on an unreadable existing manifest. *)

val load_manifest : string -> manifest option
(** [None] when no manifest file exists; raises [Failure] on a corrupt
    one. *)

val manifest_to_string : manifest -> string
(** Includes a constant [policy greedy] line. *)

val manifest_of_string : string -> manifest
(** Raises [Failure] on a malformed manifest, and on one that names any
    policy other than [greedy] (the message names it). *)

val point_path : string -> int -> string

val record_point : dir:string -> result -> unit
(** Atomic write of [points/point-<index>]. *)

val read_point : dir:string -> int -> result option
(** [None] for a missing or unreadable point (it will simply be
    re-run). *)

val completed : dir:string -> total:int -> result option array
(** Slot [i] holds point [i]'s result if its file exists and parses. *)

val front_path : string -> bench:string -> metric:Errest.Metrics.kind -> string
val corpus_front_path : string -> metric:Errest.Metrics.kind -> string

val write_fronts : dir:string -> manifest -> result list -> unit
(** Atomically rewrite every front file covered by [results]: per
    (benchmark, metric) the four-section file, and per metric a corpus
    file of mean AND-ratios over the budgets at which {e every}
    benchmark has completed. *)
