(** Input distributions for error measurement (ResubALS [--distrType]).

    [Unif] is the implicit uniform distribution every earlier PR assumed.
    [Enum] is an enumerated distribution: an explicit list of input patterns
    with non-negative weights — measurement over an enumerated distribution
    simulates exactly the listed patterns (one simulation round per row) and
    weights the per-round terms, so it is {e exact over the support}, not a
    Monte-Carlo estimate. *)

type t =
  | Unif
  | Enum of {
      npis : int;  (** width of every pattern row *)
      rows : bool array array;  (** [rows.(m).(i)] = value of PI [i] in row [m] *)
      weights : float array;  (** one non-negative weight per row, positive total *)
    }

val unif : t

val enum : rows:bool array array -> weights:float array -> t
(** Validating constructor.  Raises [Invalid_argument] on empty or ragged
    rows, mismatched weight count, negative/non-finite weights, or a zero
    total. *)

val is_enum : t -> bool

val npis : t -> int option
(** Pattern width; [None] for [Unif] (which fits any circuit). *)

val equal : t -> t -> bool
(** Structural, with [Float.equal] on weights. *)

val validate_npis : t -> npis:int -> (unit, string) result
(** Check the distribution fits a circuit with the given PI count. *)

val to_string : t -> string
(** Single line, no newlines — the form the run journal stores.  ["unif"],
    or ["enum bits:w,bits:w,..."] with hex-float weights so the round trip
    through {!of_string} is bit-exact. *)

val of_string : string -> (t, string) result

val parse_lines : string list -> (t, string) result
(** Parse the ENUM pattern-file format: one ["bitstring weight"] pair per
    line (leftmost character = PI 0), [#] comments and blank lines
    ignored. *)

val load : string -> (t, string) result
(** {!parse_lines} on a file. *)

val signatures : t -> Logic.Bitvec.t array
(** The enumerated patterns as PI signature vectors: one simulation round
    per row, in file order — simulate these and measure with
    {!val:round_weights} for the exact weighted error.  Raises
    [Invalid_argument] on [Unif]. *)

val round_weights : t -> float array option
(** Per-round weights matching {!signatures}; [None] for [Unif]. *)

val sample : t -> Logic.Rng.t -> npis:int -> len:int -> Logic.Bitvec.t array
(** [len] care-set patterns drawn from the distribution: uniform random
    vectors for [Unif], rows sampled proportionally to their weights for
    [Enum] (whose [npis] must match). *)
