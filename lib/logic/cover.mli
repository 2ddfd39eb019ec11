(** Sums of products: lists of {!Cube.t} over a fixed variable count. *)

type t = { nvars : int; cubes : Cube.t list }

val make : int -> Cube.t list -> t
(** Validates that every literal is within range. *)

val const0 : int -> t
val const1 : int -> t

val num_cubes : t -> int

val num_lits : t -> int
(** Total literal count (the classic two-level cost). *)

val to_truth : t -> Truth.t

val covers : t -> Truth.t -> bool
(** [covers c f]: does the cover contain all of [f]'s ON-set? *)

val within : t -> Truth.t -> bool
(** [within c f]: is the cover's function a subset of [f]? *)

val eval_sigs : t -> pos_sigs:Bitvec.t array -> Bitvec.t
(** Word-parallel evaluation over per-variable signature vectors. *)

val to_pla_rows : t -> string list
(** One ["1-0 1"]-style row per cube (output column always 1). *)

val pp : Format.formatter -> t -> unit
