(** Irredundant sum-of-products computation (Minato–Morreale).

    Given an incompletely-specified function as an ON-set and a DC-set truth
    table, computes an ISOP cover [f] with [on <= f <= on + dc] in which every
    cube is prime relative to the interval and no cube is redundant. *)

val compute : on:Truth.t -> dc:Truth.t -> Cover.t
(** Raises [Invalid_argument] if the tables disagree on variable count or if
    [on] and [dc] overlap. *)
