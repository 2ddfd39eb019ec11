(** Property-based testing over random circuits, with shrinking.

    [check] runs a property over circuits generated from consecutive seeds;
    on failure the circuit is shrunk toward a minimal counterexample
    (dropping outputs, collapsing gates onto their fanins or constants) and
    optionally dumped as an AIGER file so CI can archive it.  Every case is
    reproducible from its printed seed. *)

type failure = {
  case_seed : int;  (** pass this to {!Gen.random} to rebuild the circuit *)
  message : string;  (** the property's error for the shrunk circuit *)
  original : Aig.Graph.t;
  shrunk : Aig.Graph.t;
  shrink_steps : int;  (** accepted reductions *)
  dump : string option;  (** AIGER path of the shrunk circuit, if written *)
}

type outcome = Passed of int | Failed of failure

val check :
  ?profile:Gen.profile ->
  ?dump_dir:string ->
  name:string ->
  seed:int ->
  count:int ->
  (Aig.Graph.t -> (unit, string) result) ->
  outcome
(** [check ~name ~seed ~count prop] evaluates [prop] on the circuits
    [Gen.random (seed + i)] for [i < count], stopping at the first failure.
    An exception escaping [prop] counts as a failure with the exception
    text.  When [dump_dir] is given — or the [ALSRAC_PROP_DUMP] environment
    variable is set — the shrunk counterexample is written there as
    [<name>-seed<k>.aag] (directory created on demand; dump errors are
    swallowed, the failure is reported either way). *)

val failure_to_string : name:string -> failure -> string
(** One line with the failing seed, the message, and the shrunk sizes —
    what a test harness should print. *)

val check_exn :
  ?profile:Gen.profile ->
  ?dump_dir:string ->
  name:string ->
  seed:int ->
  count:int ->
  (Aig.Graph.t -> (unit, string) result) ->
  unit
(** Like {!check} but raises [Failure] with {!failure_to_string} on a
    failing case. *)

(** {1 Generic values}

    The same check-and-shrink discipline for properties over arbitrary
    values (Pareto fronts, sampled error sequences ...), with
    caller-supplied generation and shrinking. *)

val check_value_exn :
  name:string ->
  seed:int ->
  count:int ->
  gen:(int -> 'a) ->
  shrink:('a -> 'a list) ->
  repr:('a -> string) ->
  ('a -> (unit, string) result) ->
  unit
(** [check_value_exn ~name ~seed ~count ~gen ~shrink ~repr prop]
    evaluates [prop] on [gen (seed + i)] for [i < count], stopping at the
    first failure, which is then shrunk greedily: [shrink v] proposes
    smaller variants in preference order, the first still-failing one is
    adopted, and the loop repeats until no variant fails (or a step budget
    runs out).  [shrink] returning [[]] disables shrinking.  An exception
    escaping [prop] counts as a failure with the exception text.  A failure
    raises [Failure] naming the seed, the message and [repr] of the shrunk
    counterexample.  Determinism is the caller's contract: [gen] and [prop]
    must depend only on their arguments. *)
