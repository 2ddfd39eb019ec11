type t = { pos : int; neg : int }

let full = { pos = 0; neg = 0 }

let make ~pos ~neg =
  if pos land neg <> 0 then invalid_arg "Cube.make: contradictory literals";
  { pos; neg }

let lit v phase =
  if v < 0 || v >= 30 then invalid_arg "Cube.lit: variable out of range";
  if phase then { pos = 1 lsl v; neg = 0 } else { pos = 0; neg = 1 lsl v }

let add_lit c v phase =
  let bit = 1 lsl v in
  if phase then begin
    if c.neg land bit <> 0 then invalid_arg "Cube.add_lit: contradictory literal";
    { c with pos = c.pos lor bit }
  end
  else begin
    if c.pos land bit <> 0 then invalid_arg "Cube.add_lit: contradictory literal";
    { c with neg = c.neg lor bit }
  end

let remove_var c v =
  let keep = lnot (1 lsl v) in
  { pos = c.pos land keep; neg = c.neg land keep }

let has_var c v = (c.pos lor c.neg) land (1 lsl v) <> 0

let phase_of c v =
  let bit = 1 lsl v in
  if c.pos land bit <> 0 then Some true
  else if c.neg land bit <> 0 then Some false
  else None

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  go n 0

let num_lits c = popcount (c.pos lor c.neg)

let vars_mask c = c.pos lor c.neg

let equal a b = a.pos = b.pos && a.neg = b.neg

let compare a b =
  let c = Stdlib.compare a.pos b.pos in
  if c <> 0 then c else Stdlib.compare a.neg b.neg

let subsumes a b = a.pos land b.pos = a.pos && a.neg land b.neg = a.neg

(* Word-parallel: AND of the literal projections, O(lits x words) instead of
   a per-minterm loop. *)
let to_truth n c =
  let t = ref (Truth.const1 n) in
  for v = 0 to n - 1 do
    let bit = 1 lsl v in
    if c.pos land bit <> 0 then t := Truth.band !t (Truth.var n v)
    else if c.neg land bit <> 0 then t := Truth.band !t (Truth.bnot (Truth.var n v))
  done;
  !t

let supercube a b = { pos = a.pos land b.pos; neg = a.neg land b.neg }

let eval_sigs c ~pos_sigs acc =
  Bitvec.fill acc true;
  let rec loop mask phase =
    if mask <> 0 then begin
      let v = ref 0 and m = ref mask in
      while !m land 1 = 0 do
        incr v;
        m := !m lsr 1
      done;
      let s = pos_sigs.(!v) in
      if phase then Bitvec.logand_inplace acc s
      else begin
        (* acc &= ~s, done via De Morgan on a temporary-free path. *)
        let aw = Bitvec.unsafe_words acc and sw = Bitvec.unsafe_words s in
        for i = 0 to Array.length aw - 1 do
          aw.(i) <- aw.(i) land lnot sw.(i)
        done;
        Bitvec.mask_tail acc
      end;
      loop (mask land lnot (1 lsl !v)) phase
    end
  in
  loop c.pos true;
  loop c.neg false

let to_string n c =
  String.init n (fun v ->
      match phase_of c v with Some true -> '1' | Some false -> '0' | None -> '-')

let pp n ppf c = Format.pp_print_string ppf (to_string n c)
