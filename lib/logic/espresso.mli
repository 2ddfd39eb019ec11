(** Heuristic two-level minimization in the style of Espresso.

    The classical EXPAND / IRREDUNDANT / REDUCE loop, run to a fixed point on
    the cover cost (cube count, then literal count).  Functions are supplied
    as completely tabulated ON/DC truth tables, which keeps every check exact;
    this covers all uses in this repository (resubstitution functions and
    refactoring windows are at most {!Truth.max_vars} inputs wide). *)

val minimize : on:Truth.t -> dc:Truth.t -> Cover.t
(** Returns a cover [f] with [on <= f <= on + dc].  Raises
    [Invalid_argument] if the sets overlap or differ in width. *)

val cost : Cover.t -> int * int
(** [(num_cubes, num_lits)] — the comparison key used by the loop. *)
