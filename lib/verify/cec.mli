(** Combinational equivalence checking by miter reduction.

    The repository is simulation-only (no SAT solver, matching the paper's
    flow), so equivalence is decided by a portfolio of exact,
    simulation-guided methods:

    - {b random refutation}: both circuits are simulated on a shared seeded
      pattern set; any disagreeing round is a counterexample;
    - {b exhaustive closure}: circuits with few enough PIs are simulated on
      all [2^n] input vectors — a complete decision procedure;
    - {b miter sweeping}: for wider circuits a miter is built (one
      XOR-output per PO pair; identical substructure is shared by strashing)
      and reduced to fixpoint by alternating cut sweeping (nodes proven
      equal by identical truth tables on an identical cut) with
      {!Sim.Fraig.sweep} (signature-guided candidate classes closed by
      truth-table proofs on small PI supports);
    - {b support closure}: each miter output whose structural PI support is
      small is decided by exhaustive simulation over that support alone;
    - {b BDD closure}: residual outputs too wide for truth tables are
      compiled cone-by-cone to a budgeted {!Bdd} — canonical, so the false
      terminal is a proof and any other result yields a counterexample.

    Every path is exact: [Equivalent] is a proof, [Inequivalent] carries a
    concrete input vector (validated against both circuits), and inputs the
    portfolio cannot decide return [Undecided] rather than a guess.

    Known frontier: the portfolio proves local exact transforms on every
    benchmark of the suite and closes cross-architecture adder miters
    (e.g. ripple-carry vs carry-lookahead), but wide compressor-tree
    majority logic (the 101-input voter) defeats both truth-table and BDD
    closure — deciding it needs a SAT backend, which the repository
    deliberately omits.  Such inputs return [Undecided] in bounded time. *)

type counterexample = {
  inputs : bool array;  (** one value per PI, index = PI position *)
  po : int;  (** an output on which the circuits disagree *)
  value_a : bool;  (** first circuit's value of that PO *)
  value_b : bool;  (** second circuit's value *)
}

type verdict =
  | Equivalent  (** proven functionally equal on every input *)
  | Inequivalent of counterexample
  | Undecided of string
      (** the bounded portfolio could not decide; the message says which
          outputs resisted and why *)

type effort =
  | Fast  (** bounded for in-flow certification: fewer sweep iterations,
              narrower cuts and supports *)
  | Thorough  (** CLI / test-suite default *)

val run :
  ?seed:int ->
  ?rounds:int ->
  ?effort:effort ->
  Aig.Graph.t ->
  Aig.Graph.t ->
  verdict
(** [run a b] checks the circuits output-by-output.  Defaults: [seed = 1],
    [rounds = 1024] random refutation rounds, [effort = Thorough].  The
    result is deterministic in the seed.  Raises [Invalid_argument] if the
    PI or PO counts differ (no counterexample vector can describe an
    interface mismatch). *)

val miter : Aig.Graph.t -> Aig.Graph.t -> Aig.Graph.t
(** The shared-PI miter: output [o] is [po_a(o) XOR po_b(o)], so the
    circuits are equivalent iff every miter output is constant false.
    Structural hashing shares identical logic between the two halves. *)

val copy_into : Aig.Graph.t -> Aig.Graph.lit array -> Aig.Graph.t -> Aig.Graph.lit array
(** [copy_into g pis src] appends a strashed copy of [src] to [g], PI [i]
    of [src] read as literal [pis.(i)] of [g], and returns the copies of
    [src]'s PO literals, in PO order.  The building block of {!miter}. *)

val eval_graph : Aig.Graph.t -> bool array -> bool array
(** PO values under one input vector (value [i] for PI [i]), by direct
    memoised recursion that shares nothing with the word-parallel
    simulator: the evaluator that validates counterexamples. *)

val holds : Aig.Graph.t -> Aig.Graph.t -> counterexample -> bool
(** Validate a counterexample by direct (non-word-parallel) evaluation of
    both circuits: true iff the recorded values are reproduced and differ. *)

val verdict_to_string : verdict -> string
