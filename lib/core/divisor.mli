(** Divisor collection, shared by the approximate LAC generator
    (Algorithm 1) and the exact resubstitution engine.

    Candidates are enumerated {e nearest-first}: descending logic level,
    ascending node id within a level.  A divisor close to the target is the
    one most likely to admit a small resubstitution function, so when a cap
    truncates the enumeration it is the deep, remote part of the cone that
    is dropped — never the near divisors.

    The eager forms of the walk below (every set, then a stable sort by
    savings) live in the test suite as the reference it is checked
    against. *)

val tfi_candidates : Aig.Graph.t -> max_tfi:int -> int -> int list
(** TFI nodes of the target (target excluded), nearest-first, at most
    [max_tfi] of them.  Empty on non-AND targets. *)

(** {1 Ranked lazy walk}

    One walk serves both resubstitution engines.  A target's divisor sets
    come in blocks, in enumeration order; every set has an integer key and
    every block an upper bound on its keys.  Keys are built from a set's
    {e savings}: the AND nodes of the target's MFFC that die when the
    target is replaced by a function of the set.  A divisor inside the
    MFFC keeps itself and its in-MFFC transitive fanin alive, so savings
    come from per-MFFC-node closure bitsets, a popcount per set. *)

type blocks
(** A target's divisor sets, grouped into keyed blocks. *)

val iter_ranked : blocks -> (key:int -> int array -> [ `Stop | `Continue ]) -> unit
(** [iter_ranked blocks f] calls [f ~key set] on every set in descending key
    order, ties in enumeration order — exactly a stable sort by key — until
    [f] answers [`Stop] or the sets are exhausted.  The walk is lazy: a set
    is handed out as soon as no set still to be enumerated can outrank it,
    and enumeration ends when [f] stops it. *)

val lac_blocks : Aig.Graph.t -> max_tfi:int -> mffc:int list -> int -> blocks
(** LAC sets, keyed by savings.  For a target with fanin set [FI], the
    sets are each [FI \ {n}] (drop one fanin), then each
    [(FI \ {n}) + {u}] for every [u] of {!tfi_candidates} (at most
    [max_tfi] TFI nodes, nearest-first), duplicates dropped, in two blocks
    (one per kept fanin).  [mffc] is the target's MFFC
    ({!Aig.Cone.mffc}). *)

val resub_blocks :
  Aig.Graph.t -> mffc:int list -> pairs:int -> triples:int -> int array -> blocks
(** [resub_blocks g ~mffc ~pairs ~triples divs]: exact-resub sets over the
    divisor list [divs] (nearest-first, from {!collect}): every triple of
    the first [triples] divisors, then every pair of the first [pairs],
    then every divisor alone, each block in lexicographic position order,
    keyed by savings − (k − 1) for a k-set.  With divisors
    [[10; 20; 30; 40]] and caps 3/3 the enumeration is [10,20,30] [10,20]
    [10,30] [20,30] [10] [20] [30] [40], so at equal key a triple comes
    first.  A set lists its divisors in [divs] order. *)

val collect :
  Aig.Graph.t ->
  ?sigs:Logic.Bitvec.t array ->
  tfo:bool array ->
  max:int ->
  int ->
  int array
(** [collect g ~tfo ~max v]: graph-wide divisor candidates for target [v] —
    every PI or AND node outside the target's TFO cone ([tfo] from
    {!Aig.Cone.tfo_mask}; the mask includes [v] itself, so the target can
    never be its own divisor) whose level does not exceed the target's,
    nearest-first, at most [max] of them.

    With per-node signatures [?sigs] (from {!Sim.Engine.simulate} on the
    care patterns), divisors that are constant on the sample or whose
    signature duplicates an already-kept divisor's in either phase are
    filtered out: on the observed patterns they cannot distinguish any care
    tuple the kept divisor does not already distinguish.  The kept
    representative is always the nearest one. *)
