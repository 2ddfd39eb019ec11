(** Technology-mapped netlists (standard cells or LUTs).

    Nets are numbered [0 .. npis-1] for the primary inputs, then one net per
    cell output in topological order. *)

type source = Const of bool | Net of int

type cell = {
  label : string;  (** gate name, or ["lut<k>"] *)
  area : float;
  delay : float;
  fanins : source array;
  tt : Logic.Truth.t;  (** function over the fanins *)
}

type t = {
  name : string;
  npis : int;
  pi_names : string array;
  cells : cell array;  (** fanins refer to PIs or earlier cells only *)
  pos : source array;
  po_names : string array;
}

val num_cells : t -> int

val area : t -> float

val delay : t -> float
(** Longest PI-to-PO path weighted by cell delays. *)

val depth : t -> int
(** Unit-delay depth (LUT-network depth in the FPGA experiments). *)

val simulate : t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** PO signatures from PI signatures — used to verify mappers against the
    source AIG. *)

val validate : t -> (unit, string) result
(** Topological-order and arity checks. *)

val to_graph : t -> Aig.Graph.t
(** Re-express the netlist as an AIG computing the same function: each
    cell's truth table is expanded into an ISOP cover over its fanin nets.
    PI/PO order and names are preserved, so the result can be compared
    against the mapper's source AIG by an equivalence checker. *)

val pp_stats : Format.formatter -> t -> unit
