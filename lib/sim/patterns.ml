let random rng ~npis ~len =
  Array.init npis (fun _ -> Logic.Bitvec.random rng len)

let exhaustive_limit = 24

let fits_exhaustive ~npis ~rounds = npis <= exhaustive_limit && 1 lsl npis <= rounds

let exhaustive ~npis =
  if npis > exhaustive_limit then invalid_arg "Patterns.exhaustive: too many PIs";
  let len = 1 lsl npis in
  Array.init npis (fun i -> Logic.Bitvec.init len (fun m -> (m lsr i) land 1 = 1))

let weighted rng ~probs ~len =
  Array.map
    (fun p ->
      if p < 0.0 || p > 1.0 then invalid_arg "Patterns.weighted: probability out of range";
      Logic.Bitvec.init len (fun _ -> Logic.Rng.float rng < p))
    probs
