(** Transitive fanin/fanout cones and maximum fanout-free cones (MFFCs). *)

val tfi_mask : Graph.t -> int -> bool array
(** [tfi_mask g id]: per node, membership in the TFI cone of [id] (the node
    itself included, per the paper's Section II terminology). *)

val tfo_mask : Graph.t -> int -> bool array
(** Per node, membership in the transitive fanout cone of [id] (the node
    itself included). *)

val mffc : Graph.t -> fanouts:int array -> int -> int list
(** [mffc g ~fanouts id]: node ids of the maximum fanout-free cone rooted at
    [id] — the AND nodes that become dead if [id] is removed.  [fanouts]
    comes from {!Topo.fanout_counts} and is not modified.  [id] itself is
    included; PIs and the constant never are. *)

val cone_inputs : Graph.t -> int list -> int list
(** Boundary of a node set: nodes outside the set feeding nodes inside. *)
