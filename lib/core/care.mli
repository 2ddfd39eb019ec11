(** Approximate care sets from logic simulation (Section III-A).

    After simulating [rounds] random PI patterns, the approximate care set of
    node [v] at divisors [g] is the set of value tuples observed across the
    divisor signatures; each tuple is tagged with the value [v] took on the
    rounds producing it. *)

type entry =
  | Unseen  (** tuple never observed: don't-care for the resubstitution *)
  | Value of bool  (** tuple observed, always with this target value *)

type t = {
  divisors : int array;
  table : entry array;  (** index = divisor-value tuple, LSB = divisor 0 *)
  care_count : int;  (** observed distinct tuples *)
}

val scan :
  ?mask:Logic.Bitvec.t ->
  sigs:Logic.Bitvec.t array ->
  node:int ->
  divisors:int array ->
  rounds:int ->
  unit ->
  t option
(** Theorem 1 restricted to the simulated patterns (Section III-B2): the
    divisors can form a resubstitution function of the target when no two
    rounds produce the same divisor tuple with different target values.
    [Some t] is the care table of a feasible set; [None] means some tuple
    was observed with both target values.  The scan reads the signatures
    one 62-round word at a time and returns [None] at the first word that
    shows a conflict, so an infeasible set costs only the words up to its
    first conflict, whatever [rounds] is.

    [sigs] are per-node signatures of at least [rounds] bits (typically from
    {!Sim.Engine.simulate} on the care pattern set).  Any number of
    divisors up to {!Logic.Truth.max_vars}, each costing one mask operation
    per observed tuple and word.

    [mask] restricts the scan to the rounds whose bit is set: with an
    observability mask (see {!Errest.Observability}) this yields the
    ODC-aware approximate care set — rounds on which the target's value
    cannot reach an output impose no constraint (an extension beyond the
    paper, off by default; see DESIGN.md §5). *)

val care_tuples : t -> int list
(** Observed tuples, ascending. *)
