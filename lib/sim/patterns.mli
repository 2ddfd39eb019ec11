(** Primary-input pattern generation.

    A pattern set for a circuit with [p] PIs and [len] rounds is an array of
    [p] signatures of [len] bits: bit [m] of signature [i] is the value of
    PI [i] in simulation round [m]. *)

val random : Logic.Rng.t -> npis:int -> len:int -> Logic.Bitvec.t array
(** Uniformly distributed rounds. *)

val exhaustive : npis:int -> Logic.Bitvec.t array
(** All [2^npis] input combinations, round [m] = minterm [m].  Requires
    [npis <= 24]. *)

val exhaustive_limit : int
(** Largest PI count accepted by {!exhaustive} (24). *)

val fits_exhaustive : npis:int -> rounds:int -> bool
(** Whether all [2^npis] input combinations fit in a budget of [rounds]
    (and [npis <= exhaustive_limit]): the one test by which every
    evaluator chooses {!exhaustive} patterns over a random sample. *)

val weighted : Logic.Rng.t -> probs:float array -> len:int -> Logic.Bitvec.t array
(** Independent per-PI one-probabilities — the "user-specified distribution"
    hook of Section III-A. *)
