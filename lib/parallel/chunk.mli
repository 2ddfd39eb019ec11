(** Deterministic chunked iteration and map.

    The determinism contract: chunk boundaries depend only on [n] and
    [?chunk_size] (default: at most {!default_max_chunks} equal chunks) —
    never on the pool size or scheduling.  Any computation whose per-chunk work
    is a pure function of its index range is therefore bit-identical at
    every [jobs] setting; this is what makes parallel simulation and
    candidate scoring safe to interleave with journaled checkpoint/resume.

    Without [?pool] (or with a 1-lane pool) the same chunks run sequentially
    in index order on the caller.

    Cancellation: when the pool carries a {!Pool.set_should_stop} hook, it
    is checked at every chunk boundary — on the parallel path by the pool
    itself, on the sequential fallback by this module — and a fired hook
    aborts the computation with {!Pool.Cancelled}.  Chunks already running
    complete normally; no partial chunk result is ever observed. *)

val default_max_chunks : int
(** Default chunk-count ceiling (64): [chunk_size = ceil (n / 64)]. *)

val ranges : ?chunk_size:int -> int -> (int * int) array
(** [ranges n] are the half-open [(lo, hi)] chunk bounds covering [0..n-1],
    in order.  Exposed for callers that need the boundaries themselves. *)

val iter : ?pool:Pool.t -> ?chunk_size:int -> n:int -> (int -> int -> unit) -> unit
(** [iter ~n f] runs [f lo hi] for every chunk.  Chunks must write disjoint
    state (e.g. disjoint array slices). *)

val map : ?pool:Pool.t -> ?chunk_size:int -> n:int -> (int -> 'a) -> 'a array
(** Per-index map; result slot [i] is [f i]. *)

