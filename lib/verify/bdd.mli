(** Reduced ordered binary decision diagrams with a node budget.

    The last-resort exact decision procedure of {!Cec}: miter outputs whose
    cones resist sweeping and are too wide for truth-table closure are
    compiled to a BDD — canonical, so the cone is constant false iff its
    BDD is the false terminal, and any other BDD yields a satisfying input
    (a counterexample) by walking one path to the true terminal.

    The manager is deliberately minimal: hash-consed nodes, an ITE cache,
    and a hard node budget ({!Node_limit}) so a cone with an exploding BDD
    degrades into "undecided" instead of consuming the machine. *)

type mgr
(** A manager owns every node it created; nodes from different managers must
    not be mixed. *)

type node
(** A BDD rooted at a hash-consed node; structural equality decides
    functional equality within one manager. *)

exception Node_limit
(** Raised by any operation that would allocate past the manager's budget.
    The manager stays usable (the partial results are just abandoned). *)

val create : ?limit:int -> nvars:int -> unit -> mgr
(** [limit] bounds live nodes (default [1_000_000]). [nvars] is the
    variable universe; variable index doubles as its order level. *)

val cfalse : mgr -> node

val var : mgr -> int -> node
(** Raises [Invalid_argument] outside [0 .. nvars-1]. *)

val not_ : mgr -> node -> node
val and_ : mgr -> node -> node -> node

val is_false : mgr -> node -> bool

val num_nodes : mgr -> int
(** Nodes allocated so far (terminals included).  Allocation is cumulative —
    nothing is freed — so callers compiling long node chains should migrate
    their live roots to a fresh manager with {!copy_to} when this
    approaches the budget (mark-compact collection). *)

val copy_to : src:mgr -> dst:mgr -> node array -> node array
(** Rebuild the given roots inside [dst], preserving shared structure
    (one memo table across all roots).  The managers must share the same
    variable universe. *)

val any_sat : mgr -> node -> (int * bool) list
(** A satisfying partial assignment [(variable, value)] for a non-false
    node; variables not listed are don't-cares.  Raises [Invalid_argument]
    on the false terminal. *)
