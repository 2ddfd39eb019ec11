(** Truth tables over up to 16 variables.

    A truth table represents a completely-specified Boolean function; bit [m]
    is the function value on minterm [m], where bit [i] of [m] is the value of
    variable [i].  Tables are backed by 64-bit words with the conventional
    variable masks, so cofactoring and bulk logic are word-parallel. *)

type t

val max_vars : int
(** 16: ample for cut functions, refactoring windows and resubstitution. *)

val num_vars : t -> int

val num_bits : t -> int
(** [2 ^ num_vars]. *)

val const0 : int -> t
(** [const0 n] is the constant-false function of [n] variables. *)

val const1 : int -> t

val var : int -> int -> t
(** [var n i] is the projection onto variable [i] ([0 <= i < n]). *)

val get : t -> int -> bool
(** Value on a minterm. *)

val set : t -> int -> bool -> t
(** Functional update of one minterm. *)

val of_fun : int -> (int -> bool) -> t
(** [of_fun n f] tabulates [f] over all [2^n] minterms. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bnot : t -> t
val bdiff : t -> t -> t
(** [bdiff a b] is [a AND NOT b]. *)

val is_const0 : t -> bool
val is_const1 : t -> bool

val iter_minterms : t -> (int -> unit) -> unit
(** Apply to every ON-set minterm in increasing order. *)

val cofactor0 : t -> int -> t
(** [cofactor0 t i] is [t] with variable [i] fixed to 0 (still [n] vars). *)

val cofactor1 : t -> int -> t

val exists : t -> int -> t
(** Existential quantification: [cofactor0 t i OR cofactor1 t i]. *)

val depends_on : t -> int -> bool
(** True if the function actually depends on variable [i]. *)

val support : t -> int list
(** Indices of all variables the function depends on, increasing. *)

val shrink_to_support : t -> t * int list
(** Re-express over its support only.  Returns the smaller table and the list
    mapping new variable [j] to the original variable [support.(j)]. *)

val expand : t -> into:int -> placement:int array -> t
(** [expand t ~into:n ~placement] re-expresses [t] over [n] variables where
    old variable [i] becomes variable [placement.(i)].  Placements must be
    distinct and within range. *)

val eval : t -> bool array -> bool
(** Evaluate under a point assignment (array length = [num_vars]). *)

val to_hex : t -> string

val pp : Format.formatter -> t -> unit
