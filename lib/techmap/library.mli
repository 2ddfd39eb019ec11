(** Standard-cell libraries for technology mapping.

    A gate is a single-output cell described by a truth table over its
    inputs, an area, and a pin-independent propagation delay — the genlib
    level of detail, which is what the paper's MCNC-library experiments
    need. *)

type gate = {
  name : string;
  ninputs : int;
  tt : Logic.Truth.t;  (** function over variables [0 .. ninputs-1] *)
  area : float;
  delay : float;
}

type t = { name : string; gates : gate list }

val inverter : t -> gate
(** The smallest gate computing NOT.  Raises [Failure] if the library has
    none (every usable library must). *)

val max_inputs : t -> int

val find : t -> string -> gate option

val mcnc : t
(** Embedded MCNC-class library (see DESIGN.md §2.5): INV, buffers excluded,
    NAND/NOR 2-4, AND2/OR2, XOR2/XNOR2, AOI/OAI 21 and 22, MUX2. *)
