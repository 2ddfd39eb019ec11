type t = { len : int; words : int array }

let word_bits = 62

let word_mask = (1 lsl word_bits) - 1

let words_for len = if len = 0 then 0 else ((len - 1) / word_bits) + 1

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Array.make (words_for len) 0 }

let length t = t.len

let num_words t = Array.length t.words

let unsafe_words t = t.words

(* Bits of the last word beyond [len] must stay zero so that popcount,
   equality and hashing can work word-wise. *)
let mask_tail t =
  let n = Array.length t.words in
  if n > 0 then begin
    let used = t.len - ((n - 1) * word_bits) in
    if used < word_bits then
      t.words.(n - 1) <- t.words.(n - 1) land ((1 lsl used) - 1)
  end

let copy t = { len = t.len; words = Array.copy t.words }

let check_index t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check_index t i;
  (t.words.(i / word_bits) lsr (i mod word_bits)) land 1 = 1

let set t i b =
  check_index t i;
  let w = i / word_bits and off = i mod word_bits in
  if b then t.words.(w) <- t.words.(w) lor (1 lsl off)
  else t.words.(w) <- t.words.(w) land lnot (1 lsl off)

let init len f =
  let t = create len in
  for i = 0 to len - 1 do
    if f i then set t i true
  done;
  t

let fill t b =
  Array.fill t.words 0 (Array.length t.words) (if b then word_mask else 0);
  mask_tail t

let equal a b = a.len = b.len && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash t = Hashtbl.hash (t.len, t.words)

(* The phase-canonical form is complemented when bit 0 is set.  Both
   functions work on the raw words and complement virtually; a virtual
   complement must leave the last word's unused tail bits zero, so that
   word is reduced to its payload bits. *)
let tail_mask t =
  let rem = t.len mod word_bits in
  if rem = 0 then word_mask else (1 lsl rem) - 1

let phase t = t.len > 0 && t.words.(0) land 1 = 1

let canon_hash t =
  let nw = Array.length t.words in
  let inv = if phase t then word_mask else 0 in
  let tail = tail_mask t in
  let h = ref 0 in
  for i = 0 to nw - 1 do
    let w = t.words.(i) lxor inv in
    let w = if i = nw - 1 then w land tail else w in
    h := (!h * 0x9E3779B1) lxor w
  done;
  let h = !h lxor (!h lsr 16) in
  h * 0x85EBCA77 land max_int

let canon_equal a b =
  a.len = b.len
  &&
  if phase a = phase b then a.words = b.words
  else begin
    (* Opposite phases: equal canonical forms differ in every payload bit. *)
    let nw = Array.length a.words and tail = tail_mask a in
    let eq = ref true and i = ref 0 in
    while !eq && !i < nw do
      let m = if !i = nw - 1 then tail else word_mask in
      if a.words.(!i) lxor b.words.(!i) <> m then eq := false;
      incr i
    done;
    !eq
  end

let check_lengths a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let map2 f a b =
  check_lengths a b;
  let r = create a.len in
  for i = 0 to Array.length a.words - 1 do
    r.words.(i) <- f a.words.(i) b.words.(i)
  done;
  r

let logand a b = map2 ( land ) a b
let logor a b = map2 ( lor ) a b
let logxor a b = map2 ( lxor ) a b

let lognot a =
  let r = create a.len in
  for i = 0 to Array.length a.words - 1 do
    r.words.(i) <- lnot a.words.(i) land word_mask
  done;
  mask_tail r;
  r

let inplace2 f dst src =
  check_lengths dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- f dst.words.(i) src.words.(i)
  done

let logand_inplace dst src = inplace2 ( land ) dst src
let logor_inplace dst src = inplace2 ( lor ) dst src

let blit src dst =
  check_lengths dst src;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

(* SWAR popcount adapted to 62 significant bits (the two spare top bits are
   always zero, so the 64-bit constants stay valid). *)
let popcount_word w =
  let w = w - ((w lsr 1) land 0x1555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

let popcount t =
  let acc = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    acc := !acc + popcount_word t.words.(i)
  done;
  !acc

let popcount_xor a b =
  check_lengths a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(i) lxor b.words.(i))
  done;
  !acc

let hamming = popcount_xor

let is_zero t = Array.for_all (fun w -> w = 0) t.words

let is_ones t = popcount t = t.len

let iter_set t f =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      let low = !w land -(!w) in
      (* Index of the lowest set bit. *)
      let bit = popcount_word (low - 1) in
      f ((wi * word_bits) + bit);
      w := !w lxor low
    done
  done

let randomize rng t =
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Rng.bits62 rng
  done;
  mask_tail t

let random rng len =
  let t = create len in
  randomize rng t;
  t

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | c -> invalid_arg (Printf.sprintf "Bitvec.of_string: bad char %C" c))

let pp ppf t = Format.pp_print_string ppf (to_string t)
