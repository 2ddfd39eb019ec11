(** Derivation of approximate resubstitution functions (Section III-B3).

    From a feasible care scan (a table {!Care.scan} returned), the truth
    table over the divisors has the observed target value on each care
    tuple and a don't-care elsewhere; an ISOP is computed on that interval
    (Espresso-minimized) and factored into an expression over the divisors,
    ready for insertion by {!Aig.Graph.rebuild}. *)

val tables : Care.t -> Logic.Truth.t * Logic.Truth.t
(** [(on, dc)] truth tables over the divisor variables: [on] holds the
    tuples observed with target value 1, [dc] the unseen ones.  A
    {!Care.t} holds no conflict, so this cannot fail. *)

val derive : Care.t -> Logic.Cover.t
(** Minimized ISOP cover of the resubstitution function: exactly
    [Logic.Espresso.minimize] on {!tables}.  With one or two divisors (every
    LAC set) the result is looked up in a table of all 90 such care tables,
    minimized by Espresso once at start-up; wider sets call Espresso. *)

val expr_of_cover : Logic.Cover.t -> Logic.Factor.expr
(** Factored form for AIG insertion. *)

val attempt :
  ?mask:Logic.Bitvec.t ->
  sigs:Logic.Bitvec.t array ->
  rounds:int ->
  node:int ->
  savings:int ->
  int array ->
  (Logic.Cover.t * Logic.Factor.expr * int) option
(** One resubstitution attempt, the step both engines take on each set the
    ranked walk ({!Divisor.iter_ranked}) hands out: scan the care set of
    [node] at the divisors ({!Care.scan}, [mask] as there); if the scan
    returns a table, {!derive} the cover and return it with its factored
    form and the net gain [savings - Logic.Factor.and2_cost expr], where
    [savings] is the set's MFFC savings (the key {!Divisor.lac_blocks}
    and {!Divisor.resub_blocks} give it).  [None] when the scan
    finds a conflict, which it reports at the first conflicting word, so
    an infeasible set costs no derivation and usually one word of
    scanning. *)
