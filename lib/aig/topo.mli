(** Structural measurements over an AIG: levels, depth, fanout counts.

    All of these read the graph's revision-stamped derived-view cache
    ({!Graph.views}): the first query after a structural mutation pays one
    bulk O(|V| + |E|) pass, every later query on the unchanged graph is
    O(1).  The returned arrays are shared with the cache — do not mutate
    them (copy first, as {!Cone.mffc} does with its reference counts). *)

val levels : Graph.t -> int array
(** Per node id: logic level (constant and PIs at 0, AND = 1 + max fanin).
    Cached, read-only. *)

val depth : Graph.t -> int
(** Maximum level over the PO drivers (0 for constant / wire-only graphs). *)

val fanout_counts : Graph.t -> int array
(** Per node id: number of fanout references (AND fanins + PO drivers).
    Cached, read-only. *)
