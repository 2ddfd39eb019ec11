(** Structurally hashed AND-Inverter Graphs — arena-backed struct-of-arrays.

    An AIG node is the constant (node 0), a primary input, or a two-input AND
    gate.  Edges are literals: [2 * node_id + complement_bit], so inversion is
    free.  Nodes are append-only and every AND's fanins precede it, which
    makes ascending node-id order a topological order.

    The representation is a set of parallel unboxed [int array]s (fanins,
    PI reverse index) sharing one capacity, an open-addressing int-keyed
    structural-hash table probed directly against the fanin arrays (a strash
    hit allocates nothing), and a revision-stamped cache of derived views
    (levels, reference counts, CSR fanout, depth) rebuilt in bulk on demand.

    Graphs are mutated only by appending ([add_pi], [and_], [add_po],
    [set_po]); all restructuring transforms go through {!rebuild}, which
    walks an old graph from its outputs and produces a fresh graph — dead
    logic vanishes and acyclicity holds by construction.  A {!rebuilder}
    arena makes that path allocation-free at steady state, and {!clone}
    copies a whole graph by array blits with no strash re-insertion. *)

type t

type lit = int
(** Literal: [2 * id + phase]. [0] is constant false, [1] constant true. *)

val const0 : lit
val const1 : lit

(** {1 Literals} *)

val make_lit : int -> bool -> lit
(** [make_lit id compl]. *)

val node_of : lit -> int
val is_compl : lit -> bool
val lit_not : lit -> lit
val lit_not_cond : lit -> bool -> lit

(** {1 Construction} *)

val create : ?name:string -> unit -> t

val name : t -> string
val set_name : t -> string -> unit

val add_pi : ?name:string -> t -> lit
(** Append a primary input; returns its (positive) literal. *)

val and_ : t -> lit -> lit -> lit
(** Strashed AND with constant folding and the trivial-rule simplifications
    (idempotence, complement annihilation).  A strash hit is a pure probe of
    the open-addressing table against the fanin arrays: no allocation. *)

val add_po : ?name:string -> t -> lit -> int
(** Append a primary output driven by the literal; returns its index. *)

val set_po : t -> int -> lit -> unit

val trim : t -> unit
(** Shrink [g] in place to what it holds: node, PI and PO arrays of exactly
    its size, a strash of the smallest power of two [>= 2 * (num_nodes g +
    1)] slots, no cached views.  Node ids, names and the structure are
    unchanged, so every reader sees the same graph, and it can still
    grow. *)

(** {1 Access} *)

val num_nodes : t -> int
(** Including the constant node and the PIs. *)

val revision : t -> int
(** Structural mutation counter: bumped by every node/PO append and
    [set_po].  Derived structures (e.g. {!Fanout.t}) record the
    revision they were built at and treat a mismatch as staleness. *)

val num_pis : t -> int
val num_pos : t -> int

val num_ands : t -> int
(** The AIG size measure used throughout (area proxy before mapping). *)

val pi_node : t -> int -> int
(** Node id of the [i]-th input. *)

val pi_lit : t -> int -> lit
val po_lit : t -> int -> lit
val pi_name : t -> int -> string
val po_name : t -> int -> string
val pi_index : t -> int -> int
(** PI position of a node id, or [-1] if the node is not a PI. *)

val fanin0 : t -> int -> lit
(** Fanins of an AND node.  Raises for PIs and the constant. *)

val fanin1 : t -> int -> lit

val find_and : t -> lit -> lit -> int option
(** Pure strash probe: the existing AND node with exactly these (normalized)
    fanins, if any.  Never inserts, folds or allocates table state. *)

val is_const : int -> bool
val is_pi : t -> int -> bool
val is_and : t -> int -> bool

val iter_ands : t -> (int -> unit) -> unit
(** Visit every AND node id in topological (ascending) order. *)

val iter_pos : t -> (int -> lit -> unit) -> unit

(** {1 Derived views}

    One revision-stamped bundle of derived structure, rebuilt in bulk the
    first time it is requested after a structural mutation and shared by
    every consumer until the next one.  All arrays are owned by the graph:
    treat them as read-only — mutating them corrupts every other reader of
    the same revision. *)

type views = private {
  v_rev : int;  (** the {!revision} the bundle was built at *)
  v_levels : int array;
      (** per node id: logic level (constant and PIs at 0) *)
  v_refs : int array;
      (** per node id: fanout references (AND fanins + PO drivers) *)
  v_offsets : int array;  (** CSR: node id -> slice of [v_targets] *)
  v_targets : int array;
      (** AND consumers per source node, ascending (hence topological) *)
  v_po_offsets : int array;  (** CSR: node id -> slice of [v_po_targets] *)
  v_po_targets : int array;  (** PO indexes per driver node *)
  v_depth : int;  (** max level over the PO drivers *)
}

val views : t -> views
(** The cached bundle for the current revision; O(|V| + |E|) to (re)build,
    O(1) while the graph is structurally unchanged. *)

val levels : t -> int array
(** [v_levels] of {!views} — cached, read-only. *)

val ref_counts : t -> int array
(** [v_refs] of {!views} — cached, read-only. *)

val depth : t -> int
(** [v_depth] of {!views}. *)

(** {1 Whole-graph copies}

    A plain array blit: the strash table is copied verbatim, never
    re-inserted, so copying is O(size) with a tiny constant and is safe to
    use per-candidate (guard/rollback) or per-worker (parallel sweeps). *)

val clone : t -> t
(** An independent graph with identical contents (same node ids, names,
    strash state).  The derived-view bundle is shared until either side
    mutates — views are immutable per revision, so this is safe. *)

(** {1 Restructuring} *)

type replacement =
  | Replace_lit of lit
      (** Substitute the node by an existing literal of the same graph. *)
  | Replace_expr of Logic.Factor.expr * int array
      (** Substitute by an expression over leaf node ids of the same graph. *)

val rebuild : ?replace:(int -> replacement option) -> t -> t
(** Copy the graph from its POs, applying substitutions on the way.  PIs are
    preserved in order (even if dangling); unreachable logic is dropped;
    structural hashing re-merges shared logic.  Raises [Failure] if a
    substitution introduces a combinational cycle. *)

val compact : t -> t
(** [rebuild] without substitutions: dead-node elimination + re-strashing. *)

type rebuilder
(** A reusable rebuild arena: the old-id -> new-lit map plus a pool of
    recycled destination graphs.  At steady state (map grown to the largest
    source, one graph in the pool) {!rebuild_with} performs no array
    allocation beyond what the rebuilt logic itself demands. *)

val rebuilder : unit -> rebuilder

val rebuild_with :
  rebuilder -> ?replace:(int -> replacement option) -> t -> t
(** Exactly {!rebuild} — same traversal, same node numbering, same result —
    but scratch comes from the arena and the destination graph is taken
    from the arena's pool when one is available.  Ownership of the result
    passes to the caller; hand rejected candidates back with {!recycle}. *)

val recycle : rebuilder -> t -> unit
(** Return a graph produced by {!rebuild_with} to the arena's pool.  The
    graph must no longer be referenced by the caller. *)

val build_expr : t -> Logic.Factor.expr -> lit array -> lit
(** Instantiate a factored expression; [leaves.(i)] is the literal standing
    for expression variable [i]. *)

val pp_stats : Format.formatter -> t -> unit
