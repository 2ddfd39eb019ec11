(** Single product terms (cubes) in positional-literal form.

    A cube over [n <= 30] variables is a pair of bit masks: [pos] marks
    variables appearing as positive literals, [neg] as negative literals;
    a variable in neither mask is absent (don't-care in the cube).  The empty
    cube (no literals) is the tautology. *)

type t = private { pos : int; neg : int }

val full : t
(** The tautology cube (no literals). *)

val make : pos:int -> neg:int -> t
(** Raises [Invalid_argument] if [pos land neg <> 0]. *)

val lit : int -> bool -> t
(** [lit v phase] is the single-literal cube [v] (positive if [phase]). *)

val add_lit : t -> int -> bool -> t
(** Conjoin one more literal.  Raises if the opposite literal is present. *)

val remove_var : t -> int -> t
(** Drop any literal of the given variable (cube expansion). *)

val has_var : t -> int -> bool

val phase_of : t -> int -> bool option
(** [Some true]/[Some false] for a positive/negative literal, [None] if
    absent. *)

val num_lits : t -> int

val vars_mask : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val subsumes : t -> t -> bool
(** [subsumes a b] iff every minterm of [b] is a minterm of [a], i.e. [a]'s
    literals are a subset of [b]'s. *)

val to_truth : int -> t -> Truth.t
(** Characteristic function over [n] variables. *)

val supercube : t -> t -> t
(** Smallest cube containing both. *)

val eval_sigs : t -> pos_sigs:Bitvec.t array -> Bitvec.t -> unit
(** [eval_sigs c ~pos_sigs acc] word-parallel-evaluates the cube over
    signature vectors (entry [i] = signature of variable [i]) and stores the
    result in [acc].  All vectors must share a length. *)

val to_string : int -> t -> string
(** SOP-row syntax over [n] vars, e.g. ["1-0"] . *)

val pp : int -> Format.formatter -> t -> unit
