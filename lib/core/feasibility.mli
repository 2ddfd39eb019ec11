(** Divisor feasibility (Theorem 1 restricted to simulated patterns,
    Section III-B2).

    A divisor set can form an approximate resubstitution function when no two
    simulated rounds produce the same divisor tuple with different target
    values — i.e. the care scan contains no {!Care.Conflict} entry. *)

val ok : Care.t -> bool
