module Bitvec = Logic.Bitvec

type kind =
  | Er
  | Med
  | Nmed
  | Mred
  | Mse
  | Mhd
  | Nmhd
  | Maxed
  | Maxhd
  | Maxred

let kind_to_string = function
  | Er -> "er"
  | Med -> "med"
  | Nmed -> "nmed"
  | Mred -> "mred"
  | Mse -> "mse"
  | Mhd -> "mhd"
  | Nmhd -> "nmhd"
  | Maxed -> "maxed"
  | Maxhd -> "maxhd"
  | Maxred -> "maxred"

let kind_of_string = function
  | "er" -> Some Er
  | "med" -> Some Med
  | "nmed" -> Some Nmed
  | "mred" -> Some Mred
  | "mse" -> Some Mse
  | "mhd" -> Some Mhd
  | "nmhd" -> Some Nmhd
  | "maxed" -> Some Maxed
  | "maxhd" -> Some Maxhd
  | "maxred" -> Some Maxred
  | _ -> None

let all_kinds = [ Er; Med; Nmed; Mred; Mse; Mhd; Nmhd; Maxed; Maxhd; Maxred ]
let is_max = function Maxed | Maxhd | Maxred -> true | _ -> false
let bounded_mean = function Er | Nmed | Nmhd -> true | _ -> false

let check_shapes golden approx =
  if Array.length golden <> Array.length approx then
    invalid_arg "Metrics: PO count mismatch";
  if Array.length golden > 0 then begin
    let len = Bitvec.length golden.(0) in
    Array.iter
      (fun v -> if Bitvec.length v <> len then invalid_arg "Metrics: ragged signatures")
      (Array.append golden approx)
  end

let num_rounds golden =
  if Array.length golden = 0 then 0 else Bitvec.length golden.(0)

let er ~golden ~approx =
  check_shapes golden approx;
  let len = num_rounds golden in
  if len = 0 then 0.0
  else begin
    let diff = Bitvec.create len in
    Array.iteri
      (fun i go ->
        let x = Bitvec.logxor go approx.(i) in
        Bitvec.logor_inplace diff x)
      golden;
    float_of_int (Bitvec.popcount diff) /. float_of_int len
  end

(* XOR [bit] into [values.(off + r)] for every set bit [r] of word [x]. *)
let xor_set_bits values ~off x bit =
  let x = ref x in
  while !x <> 0 do
    let low = !x land - !x in
    let r = off + Bitvec.popcount_word (low - 1) in
    values.(r) <- values.(r) lxor bit;
    x := !x lxor low
  done

(* Word by word: each PO sets only its own bit of a zeroed value, so XOR
   is OR here. *)
let output_values pos =
  let npos = Array.length pos in
  if npos > 62 then invalid_arg "Metrics.output_values: more than 62 outputs";
  let values = Array.make (num_rounds pos) 0 in
  for i = 0 to npos - 1 do
    Array.iteri
      (fun w x -> xor_set_bits values ~off:(w * Bitvec.word_bits) x (1 lsl i))
      (Bitvec.unsafe_words pos.(i))
  done;
  values

(* Word-blocked summation: fold rounds per 62-round block, then fold the
   block sums in block order.  This is THE float-summation order of every
   error-distance measurement (full and incremental alike, DESIGN.md
   section 10): a block whose rounds are untouched by a candidate
   contributes the exact same partial sum, so cached per-block partials
   compose bit-identically with recomputed ones. *)
let sum_blocked len f =
  let acc = ref 0.0 in
  let lo = ref 0 in
  while !lo < len do
    let hi = min len (!lo + Bitvec.word_bits) in
    let wacc = ref 0.0 in
    for m = !lo to hi - 1 do
      wacc := !wacc +. f m
    done;
    acc := !acc +. !wacc;
    lo := hi
  done;
  !acc

let fold_ed f ~golden ~approx =
  check_shapes golden approx;
  let len = num_rounds golden in
  if len = 0 then 0.0
  else begin
    let gv = output_values golden and av = output_values approx in
    sum_blocked len (fun m -> f gv.(m) av.(m)) /. float_of_int len
  end

let mean_ed ~golden ~approx =
  fold_ed (fun g a -> float_of_int (abs (g - a))) ~golden ~approx

let med = mean_ed

let nmed ~golden ~approx =
  let o = Array.length golden in
  let maxval = if o = 0 then 1.0 else (2.0 ** float_of_int o) -. 1.0 in
  mean_ed ~golden ~approx /. maxval

let mred ~golden ~approx =
  fold_ed
    (fun g a -> float_of_int (abs (g - a)) /. float_of_int (max g 1))
    ~golden ~approx

(* ---------- Per-round term families ----------

   Every value-decoded metric is [aggregate over rounds of
   term(gv, av) * weight(round)]: the aggregate is either the blocked mean
   or the maximum, the term is one of the four families below, and the
   weight bakes together the metric's own normalization and (optionally)
   the input distribution.  One shared [word_term] is evaluated by both
   the full and the incremental paths — that single code path is what makes
   them bit-identical ([Float.equal]). *)

type term_fn = Indicator | Abs_diff | Squared | Hamming

let term fn g a =
  match fn with
  | Indicator -> if g = a then 0.0 else 1.0
  | Abs_diff -> float_of_int (abs (g - a))
  | Squared ->
      let d = float_of_int (g - a) in
      d *. d
  | Hamming -> float_of_int (Bitvec.popcount_word (g lxor a))

let term_of_kind = function
  | Er -> Indicator
  | Med | Nmed | Mred | Maxed | Maxred -> Abs_diff
  | Mse -> Squared
  | Mhd | Nmhd | Maxhd -> Hamming

(* Per-round multiplier from the metric's own definition (normalization /
   relative denominator); the distribution multiplier is folded in by
   [prepare]. *)
let metric_weights kind ~npos values =
  let len = Array.length values in
  match kind with
  | Er | Med | Mse | Mhd | Maxed | Maxhd -> Array.make len 1.0
  | Nmed ->
      let maxval = if npos = 0 then 1.0 else (2.0 ** float_of_int npos) -. 1.0 in
      Array.make len (1.0 /. maxval)
  | Nmhd ->
      let o = if npos = 0 then 1.0 else float_of_int npos in
      Array.make len (1.0 /. o)
  | Mred | Maxred ->
      Array.map (fun g -> 1.0 /. float_of_int (max g 1)) values

type prepared =
  | Prep_er of Bitvec.t array
  | Prep_value of {
      golden : Bitvec.t array;
      values : int array;
      weights : float array;
          (** per-round multiplier applied to the term; for max kinds the
              metric weight, zeroed off-support rounds *)
      fn : term_fn;
      maximum : bool;  (** worst round instead of the blocked mean *)
    }

let check_distr_weights p ~len =
  if Array.length p <> len then
    invalid_arg "Metrics: distribution weight count mismatch";
  Array.iter
    (fun x ->
      if not (Float.is_finite x) || x < 0.0 then
        invalid_arg "Metrics: distribution weights must be finite and non-negative")
    p;
  let total = Array.fold_left ( +. ) 0.0 p in
  if total <= 0.0 then invalid_arg "Metrics: distribution weights sum to zero";
  total

let prepare ?weights kind ~golden =
  match (kind, weights) with
  | Er, None -> Prep_er golden
  | _ ->
      let len = num_rounds golden in
      let values = output_values golden in
      let npos = Array.length golden in
      let w = metric_weights kind ~npos values in
      let fn = term_of_kind kind in
      let maximum = is_max kind in
      (match weights with
      | None -> ()
      | Some p when maximum ->
          (* Under a distribution the maximum ranges over the support only:
             a zero weight excludes the round, any positive weight keeps the
             metric weight untouched (worst case is not probability-scaled). *)
          ignore (check_distr_weights p ~len : float);
          Array.iteri (fun m pm -> if pm <= 0.0 then w.(m) <- 0.0) p
      | Some p ->
          (* Weighted mean: the effective multiplier is
             [metric_w * (p_m / total) * len], so the final division by [len]
             in the blocked fold yields exactly the probability-weighted mean.
             Uniform weights over the sample give a multiplier of exactly 1.0,
             which is why ENUM-with-equal-weights is bit-identical to UNIF. *)
          let total = check_distr_weights p ~len in
          let scale = float_of_int len /. total in
          Array.iteri (fun m pm -> w.(m) <- w.(m) *. (pm *. scale)) p);
      Prep_value { golden; values; weights = w; fn; maximum }

(* Aggregate of the rounds [lo, hi) of one word, round [m] reading its
   candidate value from [av.(m - off)]: their sum in round order (the inner
   fold of [sum_blocked]) or their maximum.  The full and the incremental
   measurement both evaluate every word through this one function, which
   is what makes them bit-identical. *)
let word_term ~maximum fn values weights av ~off ~lo ~hi =
  let acc = ref 0.0 in
  for m = lo to hi - 1 do
    let t = term fn values.(m) av.(m - off) *. weights.(m) in
    if maximum then (if t > !acc then acc := t) else acc := !acc +. t
  done;
  !acc

(* Per-word aggregates of the rounds [0, len) of [av]. *)
let word_terms ~maximum fn values weights av ~len =
  Array.init
    ((len + Bitvec.word_bits - 1) / Bitvec.word_bits)
    (fun w ->
      let lo = w * Bitvec.word_bits in
      word_term ~maximum fn values weights av ~off:0 ~lo
        ~hi:(min len (lo + Bitvec.word_bits)))

(* The outer fold over word aggregates, in word order, and the final
   division of the mean. *)
let fold_word ~maximum acc c =
  if maximum then if c > acc then c else acc else acc +. c

let finish ~maximum ~len total = if maximum then total else total /. float_of_int len

let measure_prepared prep ~approx =
  match prep with
  | Prep_er golden -> er ~golden ~approx
  | Prep_value { golden; values; weights; fn; maximum } ->
      check_shapes golden approx;
      let len = num_rounds golden in
      if len = 0 then 0.0
      else
        word_terms ~maximum fn values weights (output_values approx) ~len
        |> Array.fold_left (fold_word ~maximum) 0.0
        |> finish ~maximum ~len

let measure ?weights kind ~golden ~approx =
  match (weights, kind) with
  | None, Er -> er ~golden ~approx
  | None, Nmed -> nmed ~golden ~approx
  | None, Mred -> mred ~golden ~approx
  | _ -> measure_prepared (prepare ?weights kind ~golden) ~approx

let mse ~golden ~approx = measure Mse ~golden ~approx
let mhd ~golden ~approx = measure Mhd ~golden ~approx
let nmhd ~golden ~approx = measure Nmhd ~golden ~approx
(* ---------- Incremental measurement ----------

   Per-word base state so a candidate pays only for the words its change
   actually reaches.  ER keeps the OR-of-differences per word (an integer,
   so the delta is exact by construction); the mean kinds keep the word's
   partial sum in the blocked order above, so substituting the recomputed
   words and re-folding all blocks reproduces the full measurement
   bit-for-bit; the max kinds keep the word's maximum term, and the
   maximum of per-word maxima is order-insensitive, so the same
   substitution argument holds trivially.

   The value kinds also keep the base's decoded output values and PO
   words: a changed word's candidate values are the base values with the
   difference bits of the changed POs flipped, so a candidate pays for the
   output bits it flips, not for every PO of every changed word. *)

type incremental =
  | Inc_er of {
      len : int;
      golden_words : int array array;  (** borrowed per-PO word arrays *)
      base_or : int array;  (** per word: OR over POs of golden ^ base *)
      base_pop : int;
    }
  | Inc_value of {
      len : int;
      values : int array;  (** decoded golden output values (borrowed) *)
      weights : float array;  (** per-round multipliers (borrowed) *)
      fn : term_fn;
      maximum : bool;
      base_values : int array;  (** decoded base output values *)
      base_words : int array array;  (** borrowed per-PO base word arrays *)
      base_word : float array;  (** per word: partial sum, or maximum term *)
      base_total : float;  (** fold of [base_word] in word order *)
    }

let prepare_incremental prep ~approx =
  match prep with
  | Prep_er golden ->
      check_shapes golden approx;
      let len = num_rounds golden in
      let nwords = if len = 0 then 0 else Bitvec.num_words golden.(0) in
      let golden_words = Array.map Bitvec.unsafe_words golden in
      let approx_words = Array.map Bitvec.unsafe_words approx in
      let base_or = Array.make nwords 0 in
      for i = 0 to Array.length golden - 1 do
        let gw = golden_words.(i) and aw = approx_words.(i) in
        for w = 0 to nwords - 1 do
          base_or.(w) <- base_or.(w) lor (gw.(w) lxor aw.(w))
        done
      done;
      let base_pop = ref 0 in
      for w = 0 to nwords - 1 do
        base_pop := !base_pop + Bitvec.popcount_word base_or.(w)
      done;
      Inc_er { len; golden_words; base_or; base_pop = !base_pop }
  | Prep_value { golden; values; weights; fn; maximum } ->
      check_shapes golden approx;
      let len = num_rounds golden in
      let base_values = output_values approx in
      let base_word = word_terms ~maximum fn values weights base_values ~len in
      Inc_value
        {
          len;
          values;
          weights;
          fn;
          maximum;
          base_values;
          base_words = Array.map Bitvec.unsafe_words approx;
          base_word;
          base_total = Array.fold_left (fold_word ~maximum) 0.0 base_word;
        }

let incremental_base = function
  | Inc_er { len; base_pop; _ } ->
      if len = 0 then 0.0 else float_of_int base_pop /. float_of_int len
  | Inc_value { len; maximum; base_total; _ } ->
      if len = 0 then 0.0 else finish ~maximum ~len base_total

let measure_incremental inc ~nchanged ~changed_words ~nchanged_pos ~changed_pos
    ~get_word =
  match inc with
  | Inc_er { len; golden_words; base_or; base_pop } ->
      if len = 0 then 0.0
      else begin
        let npos = Array.length golden_words in
        let delta = ref 0 in
        for k = 0 to nchanged - 1 do
          let w = changed_words.(k) in
          let new_or = ref 0 in
          for i = 0 to npos - 1 do
            new_or := !new_or lor (golden_words.(i).(w) lxor get_word i w)
          done;
          delta :=
            !delta + Bitvec.popcount_word !new_or - Bitvec.popcount_word base_or.(w)
        done;
        float_of_int (base_pop + !delta) /. float_of_int len
      end
  | Inc_value
      { len; values; weights; fn; maximum; base_values; base_words; base_word; _ }
    ->
      if len = 0 then 0.0
      else begin
        (* One pass in word order: a changed word is recomputed from the
           base values with its flipped output bits applied, every other
           word contributes its cached base aggregate. *)
        let av = Array.make Bitvec.word_bits 0 in
        let acc = ref 0.0 and k = ref 0 in
        for w = 0 to Array.length base_word - 1 do
          let c =
            if !k < nchanged && changed_words.(!k) = w then begin
              incr k;
              let lo = w * Bitvec.word_bits in
              let hi = min len (lo + Bitvec.word_bits) in
              Array.blit base_values lo av 0 (hi - lo);
              for j = 0 to nchanged_pos - 1 do
                let i = changed_pos.(j) in
                xor_set_bits av ~off:0 (get_word i w lxor base_words.(i).(w)) (1 lsl i)
              done;
              word_term ~maximum fn values weights av ~off:lo ~lo ~hi
            end
            else base_word.(w)
          in
          acc := fold_word ~maximum !acc c
        done;
        finish ~maximum ~len !acc
      end

let compare_graphs ?weights kind ~original ~approx patterns =
  if Aig.Graph.num_pis original <> Aig.Graph.num_pis approx then
    invalid_arg "Metrics.compare_graphs: PI count mismatch";
  if Aig.Graph.num_pos original <> Aig.Graph.num_pos approx then
    invalid_arg "Metrics.compare_graphs: PO count mismatch";
  let golden = Sim.Engine.simulate_pos original patterns in
  let approx = Sim.Engine.simulate_pos approx patterns in
  measure ?weights kind ~golden ~approx

let evaluate ?(seed = 20260705) ?(sample = 1 lsl 17) kind ~original ~approx =
  let npis = Aig.Graph.num_pis original in
  let patterns =
    if Sim.Patterns.fits_exhaustive ~npis ~rounds:sample then
      Sim.Patterns.exhaustive ~npis
    else Sim.Patterns.random (Logic.Rng.create seed) ~npis ~len:sample
  in
  compare_graphs kind ~original ~approx patterns
