(* One-sided Hoeffding bound: P[mean - E > t] <= exp (-2 n t^2), so at
   confidence c the deviation is t = sqrt (ln (1 / (1 - c)) / (2 n)). *)

let check_confidence confidence =
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Certify: confidence must be in (0, 1)"

let hoeffding_margin ~samples ~confidence =
  if samples <= 0 then invalid_arg "Certify: sample count must be positive";
  check_confidence confidence;
  sqrt (log (1.0 /. (1.0 -. confidence)) /. (2.0 *. float_of_int samples))

let upper_bound ~sampled ~samples ~confidence =
  sampled +. hoeffding_margin ~samples ~confidence

let certified_le ~sampled ~samples ~confidence ~threshold =
  upper_bound ~sampled ~samples ~confidence <= threshold

