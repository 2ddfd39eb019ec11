(** K-feasible cut enumeration with priority pruning.

    A cut of node [n] is a set of nodes (leaves) such that every path from a
    PI to [n] passes through a leaf; the node computes a function of its cut
    leaves.  Cuts drive rewriting ([k = 4]) and both technology mappers. *)

type t = private {
  leaves : int array;  (** sorted node ids *)
  sign : int;  (** subset-check signature *)
}

val trivial : int -> t
(** The unit cut [{n}]. *)

val size : t -> int

val subset : t -> t -> bool
(** [subset a b] iff [a]'s leaves are all leaves of [b]. *)

val merge : k:int -> t -> t -> t option
(** Leaf union if it fits in [k] leaves. *)

val enumerate : Graph.t -> k:int -> ?max_cuts:int -> unit -> t list array
(** Per node id, the priority cuts (smallest first, dominated cuts removed,
    at most [max_cuts] kept, the trivial cut always present).  Default
    [max_cuts] is 8. *)

val truth : Graph.t -> root:int -> leaves:int array -> Logic.Truth.t
(** Function of [root] in terms of the cut leaves (variable [i] = leaf [i]).
    Raises [Failure] if the leaves do not form a cut of [root]. *)
