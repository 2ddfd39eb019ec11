(** Packed bit vectors used as simulation signatures.

    A {!t} holds [length t] bits packed into 62-bit OCaml integer words so
    that bitwise operations stay unboxed.  Bit [i] of the vector is the value
    of a signal under simulation pattern [i]; word-parallel operations over
    signatures are the workhorse of the whole ALS flow. *)

type t

val word_bits : int
(** Number of payload bits per word (62). *)

val create : int -> t
(** [create len] is an all-zero vector of [len] bits. Requires [len >= 0]. *)

val init : int -> (int -> bool) -> t
(** [init len f] sets bit [i] to [f i]. *)

val length : t -> int

val num_words : t -> int

val copy : t -> t

val get : t -> int -> bool
(** Bounds-checked bit read. *)

val set : t -> int -> bool -> unit
(** Bounds-checked bit write. *)

val fill : t -> bool -> unit
(** Set every bit to the given value. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

(** {1 Phase-canonical signatures}

    A signal and its complement are one node up to an inverter.  The
    phase-canonical form of a vector is the vector itself when bit 0 is
    clear and its complement otherwise; signature classes (fraig
    candidates, duplicate divisors) are keyed by it. *)

val canon_hash : t -> int
(** Hash of the phase-canonical form, computed over the raw words without
    materializing a complement: [canon_hash v = canon_hash (lognot v)]. *)

val canon_equal : t -> t -> bool
(** Equal phase-canonical forms: [canon_equal a b] iff [a] equals [b] or
    its complement. *)

(** {1 Bulk logic}

    All binary operations require operands of equal length. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val logand_inplace : t -> t -> unit
(** [logand_inplace dst src] stores [dst AND src] in [dst]; similarly below. *)

val logor_inplace : t -> t -> unit
val blit : t -> t -> unit
(** [blit src dst] copies [src] into [dst]. *)

val popcount_xor : t -> t -> int
(** [popcount_xor a b] is [popcount (logxor a b)] without materializing the
    difference vector; {!hamming} is an alias. *)

val popcount : t -> int
(** Number of set bits. *)

val hamming : t -> t -> int
(** Number of positions at which the vectors differ. *)

val is_zero : t -> bool
val is_ones : t -> bool

val iter_set : t -> (int -> unit) -> unit
(** Apply the callback to the index of every set bit, in increasing order. *)

val random : Rng.t -> int -> t
(** Fresh uniformly random vector of the given length. *)

val to_string : t -> string
(** Bit [0] first, e.g. ["0110"]. *)

val of_string : string -> t
(** Inverse of {!to_string}.  Raises [Invalid_argument] on non-[01] chars. *)

val pp : Format.formatter -> t -> unit

(** {1 Unsafe word access}

    For inner simulation loops only.  The last word's unused high bits are
    guaranteed to be zero and must be kept zero by writers ({!mask_tail}
    re-establishes the invariant). *)

val unsafe_words : t -> int array
val mask_tail : t -> unit
val word_mask : int
(** All 62 payload bits set. *)

val popcount_word : int -> int
(** SWAR popcount of one 62-bit payload word. *)
