module Graph = Aig.Graph
module Word = Circuits.Word
module Bitvec = Logic.Bitvec

type outcome =
  | Exact of {
      max : float;  (** [num /. den], for display and threshold checks *)
      num : int;
      den : int;  (** 1 except for [Maxred] *)
      refinements : int;  (** witness-refinement iterations beyond the sample *)
    }
  | Undecided of string

(* ---------- Exact rational comparison ----------

   MaxRED bounds are ratios of output integers, so the certificate must
   compare [a/b > c/d] without float rounding.  Outputs can be 62 bits
   wide, making the cross products up to 124 bits: compute them as three
   31-bit limbs and compare lexicographically. *)

let mul_wide a b =
  let mask = (1 lsl 31) - 1 in
  let a0 = a land mask and a1 = a lsr 31 in
  let b0 = b land mask and b1 = b lsr 31 in
  let ll = a0 * b0 in
  let lh = a0 * b1 in
  let hl = a1 * b0 in
  let t = (ll lsr 31) + (lh land mask) + (hl land mask) in
  let hi = (t lsr 31) + (lh lsr 31) + (hl lsr 31) + (a1 * b1) in
  (hi, t land mask, ll land mask)

let rat_gt (a, b) (c, d) =
  (* a/b > c/d  with  b, d > 0 *)
  compare (mul_wide a d) (mul_wide c b) > 0

(* ---------- Word-level pieces of the error computation ---------- *)

let num_bits n =
  let b = ref 0 in
  while n lsr !b <> 0 do
    incr b
  done;
  !b

(* |a - b| via two's complement subtract and a sign-selected negate. *)
let abs_diff g a b =
  let diff, a_ge_b = Word.subtract g a b in
  Word.mux_word g ~sel:a_ge_b ~t:diff ~e:(Word.negate g diff)

(* w > n for a constant n >= 0; constant-false when n saturates the width. *)
let gt_const g w n =
  let width = Array.length w in
  if width = 0 || num_bits n > width then Graph.const0
  else Word.less_unsigned g (Word.const_word n ~width) w

(* Number of set bits of [bits] as a word wide enough for the count. *)
let popcount_word g bits =
  let n = Array.length bits in
  let width = max 1 (num_bits n) in
  let acc = ref (Word.zero ~width) in
  Array.iter
    (fun b ->
      let one = Array.init width (fun j -> if j = 0 then b else Graph.const0) in
      acc := fst (Word.ripple_add g !acc one ~cin:Graph.const0))
    bits;
  !acc

(* w * n for a constant n >= 0, by shift-and-add. *)
let mul_const g w n =
  let wn = Array.length w in
  let width = wn + num_bits n in
  let acc = ref (Word.zero ~width) in
  for j = 0 to num_bits n - 1 do
    if (n lsr j) land 1 = 1 then begin
      let shifted =
        Word.resize (Array.append (Array.make j Graph.const0) w) width
      in
      acc := fst (Word.ripple_add g !acc shifted ~cin:Graph.const0)
    end
  done;
  !acc

(* max(value(gw), 1): substitute 1 when the golden word is all-zero. *)
let golden_or_one g gw =
  let is_zero =
    Array.fold_left (fun acc b -> Graph.and_ g acc (Graph.lit_not b)) Graph.const1 gw
  in
  Word.mux_word g ~sel:is_zero
    ~t:(Word.const_word 1 ~width:(Array.length gw))
    ~e:gw

(* The violation miter: one PO that is true exactly on the inputs where the
   error of [approx] against [original] strictly exceeds [num/den]. *)
let violation kind ~original ~approx ~num ~den =
  let g = Graph.create ~name:"maxerr-miter" () in
  let pis = Array.init (Graph.num_pis original) (fun _ -> Graph.add_pi g) in
  let gw = Verify.Cec.copy_into g pis original
  and aw = Verify.Cec.copy_into g pis approx in
  let v =
    match (kind : Metrics.kind) with
    | Maxed -> gt_const g (abs_diff g gw aw) num
    | Maxhd ->
        let bits = Word.xor_word g gw aw in
        gt_const g (popcount_word g bits) num
    | Maxred ->
        (* |d| * den > num * max(g, 1), exactly. *)
        let lhs = mul_const g (abs_diff g gw aw) den in
        let rhs = mul_const g (golden_or_one g gw) num in
        let width = max (Array.length lhs) (Array.length rhs) in
        Word.less_unsigned g (Word.resize rhs width) (Word.resize lhs width)
    | _ -> invalid_arg "Maxerr: not a max metric"
  in
  ignore (Graph.add_po g v);
  g

let const_false_reference ~npis =
  let g = Graph.create ~name:"maxerr-zero" () in
  for _ = 1 to npis do
    ignore (Graph.add_pi g)
  done;
  ignore (Graph.add_po g Graph.const0);
  g

(* ---------- Witness evaluation (direct, non-word-parallel) ---------- *)

let eval_value g inputs =
  let value = ref 0 in
  Array.iteri
    (fun o b -> if b then value := !value lor (1 lsl o))
    (Verify.Cec.eval_graph g inputs);
  !value

let round_rational kind ~g ~a =
  match (kind : Metrics.kind) with
  | Maxed -> (abs (g - a), 1)
  | Maxhd -> (Bitvec.popcount_word (g lxor a), 1)
  | Maxred -> (abs (g - a), max g 1)
  | _ -> invalid_arg "Maxerr: not a max metric"

(* ---------- Certification ---------- *)

let sampled_start ?(seed = 1) ?(rounds = 4096) kind ~original ~approx =
  let npis = Graph.num_pis original in
  let patterns =
    if npis <= 16 then Sim.Patterns.exhaustive ~npis
    else Sim.Patterns.random (Logic.Rng.create seed) ~npis ~len:rounds
  in
  let gv = Metrics.output_values (Sim.Engine.simulate_pos original patterns) in
  let av = Metrics.output_values (Sim.Engine.simulate_pos approx patterns) in
  let best = ref (0, 1) in
  Array.iteri
    (fun m g ->
      let r = round_rational kind ~g ~a:av.(m) in
      if rat_gt r !best then best := r)
    gv;
  !best

let certify ?(seed = 1) ?(rounds = 4096) ?(effort = Verify.Cec.Thorough)
    ?(max_refinements = 200) kind ~original ~approx =
  if not (Metrics.is_max kind) then invalid_arg "Maxerr.certify: not a max metric";
  if Graph.num_pis original <> Graph.num_pis approx then
    invalid_arg "Maxerr.certify: PI count mismatch";
  if Graph.num_pos original <> Graph.num_pos approx then
    invalid_arg "Maxerr.certify: PO count mismatch";
  if Graph.num_pos original > 62 then
    invalid_arg "Maxerr.certify: more than 62 outputs";
  let npis = Graph.num_pis original in
  if Graph.num_pos original = 0 then Exact { max = 0.0; num = 0; den = 1; refinements = 0 }
  else if npis = 0 then begin
    let g = eval_value original [||] and a = eval_value approx [||] in
    let num, den = round_rational kind ~g ~a in
    Exact { max = float_of_int num /. float_of_int den; num; den; refinements = 0 }
  end
  else begin
    (* Start from the worst sampled round — a value some input provably
       attains — then let counterexamples to "error <= bound" push it up
       until the miter closes.  The final bound is therefore the exact
       maximum: attained by a witness AND proven unbeatable. *)
    let bound = ref (sampled_start ~seed ~rounds kind ~original ~approx) in
    let reference = const_false_reference ~npis in
    let rec loop i =
      if i > max_refinements then
        Undecided
          (Printf.sprintf "refinement budget exhausted after %d witnesses" max_refinements)
      else begin
        let num, den = !bound in
        let miter = violation kind ~original ~approx ~num ~den in
        match Verify.Cec.run ~seed ~rounds ~effort miter reference with
        | Verify.Cec.Equivalent ->
            Exact { max = float_of_int num /. float_of_int den; num; den; refinements = i }
        | Verify.Cec.Inequivalent cex ->
            let g = eval_value original cex.Verify.Cec.inputs
            and a = eval_value approx cex.Verify.Cec.inputs in
            let r = round_rational kind ~g ~a in
            if not (rat_gt r !bound) then
              Undecided "counterexample did not exceed the bound"
            else begin
              bound := r;
              loop (i + 1)
            end
        | Verify.Cec.Undecided msg -> Undecided msg
      end
    in
    loop 0
  end

let certified_le ?seed ?rounds ?effort ?max_refinements kind ~original ~approx
    ~threshold =
  match certify ?seed ?rounds ?effort ?max_refinements kind ~original ~approx with
  | Exact { max; _ } -> Ok (max <= threshold)
  | Undecided msg -> Error msg
