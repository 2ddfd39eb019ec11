(** Derivation of approximate resubstitution functions (Section III-B3).

    From a feasible care scan, the truth table over the divisors has the
    observed target value on each care tuple and a don't-care elsewhere; an
    ISOP is computed on that interval (Espresso-minimized) and factored into
    an expression over the divisors, ready for insertion by
    {!Aig.Graph.rebuild}. *)

val tables : Care.t -> Logic.Truth.t * Logic.Truth.t
(** [(on, dc)] truth tables over the divisor variables.  Raises
    [Invalid_argument] if the scan has a conflict. *)

val derive : Care.t -> Logic.Cover.t
(** Minimized ISOP cover of the resubstitution function: exactly
    [Logic.Espresso.minimize] on {!tables}.  With one or two divisors (every
    LAC set) the result is looked up in a table of all 90 such care tables,
    minimized by Espresso once at start-up; wider sets call Espresso. *)

val expr_of_cover : Logic.Cover.t -> Logic.Factor.expr
(** Factored form for AIG insertion. *)
