type t = { nvars : int; words : int64 array }

let max_vars = 16

let num_vars t = t.nvars

let num_bits t = 1 lsl t.nvars

let words_for nvars = if nvars <= 6 then 1 else 1 lsl (nvars - 6)

(* Classic variable masks within a 64-bit word, for variables 0..5. *)
let var_masks =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let tail_mask nvars =
  if nvars >= 6 then -1L
  else Int64.sub (Int64.shift_left 1L (1 lsl nvars)) 1L

let check_nvars nvars =
  if nvars < 0 || nvars > max_vars then
    invalid_arg (Printf.sprintf "Truth: %d variables unsupported" nvars)

let const0 nvars =
  check_nvars nvars;
  { nvars; words = Array.make (words_for nvars) 0L }

let const1 nvars =
  check_nvars nvars;
  { nvars; words = Array.make (words_for nvars) (tail_mask nvars) }

let var nvars i =
  check_nvars nvars;
  if i < 0 || i >= nvars then invalid_arg "Truth.var: variable out of range";
  let words = Array.make (words_for nvars) 0L in
  if i < 6 then
    Array.fill words 0 (Array.length words) (Int64.logand var_masks.(i) (tail_mask nvars))
  else begin
    let stride = 1 lsl (i - 6) in
    let j = ref 0 in
    while !j < Array.length words do
      Array.fill words (!j + stride) stride (-1L);
      j := !j + (2 * stride)
    done
  end;
  { nvars; words }

let get t m =
  if m < 0 || m >= num_bits t then invalid_arg "Truth.get: minterm out of range";
  Int64.logand (Int64.shift_right_logical t.words.(m lsr 6) (m land 63)) 1L = 1L

let set t m b =
  if m < 0 || m >= num_bits t then invalid_arg "Truth.set: minterm out of range";
  let words = Array.copy t.words in
  let w = m lsr 6 and off = m land 63 in
  if b then words.(w) <- Int64.logor words.(w) (Int64.shift_left 1L off)
  else words.(w) <- Int64.logand words.(w) (Int64.lognot (Int64.shift_left 1L off));
  { t with words }

let of_fun nvars f =
  check_nvars nvars;
  let words = Array.make (words_for nvars) 0L in
  for m = 0 to (1 lsl nvars) - 1 do
    if f m then begin
      let w = m lsr 6 and off = m land 63 in
      words.(w) <- Int64.logor words.(w) (Int64.shift_left 1L off)
    end
  done;
  { nvars; words }

let equal a b = a.nvars = b.nvars && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.nvars b.nvars in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash t = Hashtbl.hash (t.nvars, t.words)

let check_same a b =
  if a.nvars <> b.nvars then invalid_arg "Truth: variable count mismatch"

let map2 f a b =
  check_same a b;
  { nvars = a.nvars; words = Array.map2 f a.words b.words }

let band a b = map2 Int64.logand a b
let bor a b = map2 Int64.logor a b
let bxor a b = map2 Int64.logxor a b

let bnot a =
  let mask = tail_mask a.nvars in
  { a with words = Array.map (fun w -> Int64.logand (Int64.lognot w) mask) a.words }

let bdiff a b = band a (bnot b)

let is_const0 t = Array.for_all (fun w -> w = 0L) t.words

let is_const1 t = equal t (const1 t.nvars)

let iter_minterms t f =
  for m = 0 to num_bits t - 1 do
    if get t m then f m
  done

let cofactor0 t i =
  if i < 0 || i >= t.nvars then invalid_arg "Truth.cofactor0: variable out of range";
  if i < 6 then begin
    let m = Int64.lognot var_masks.(i) in
    let shift = 1 lsl i in
    let words =
      Array.map
        (fun w ->
          let low = Int64.logand w m in
          Int64.logor low (Int64.shift_left low shift))
        t.words
    in
    { t with words = Array.map (fun w -> Int64.logand w (tail_mask t.nvars)) words }
  end
  else begin
    let words = Array.copy t.words in
    let stride = 1 lsl (i - 6) in
    let j = ref 0 in
    while !j < Array.length words do
      Array.blit words !j words (!j + stride) stride;
      j := !j + (2 * stride)
    done;
    { t with words }
  end

let cofactor1 t i =
  if i < 0 || i >= t.nvars then invalid_arg "Truth.cofactor1: variable out of range";
  if i < 6 then begin
    let m = var_masks.(i) in
    let shift = 1 lsl i in
    let words =
      Array.map
        (fun w ->
          let high = Int64.logand w m in
          Int64.logor high (Int64.shift_right_logical high shift))
        t.words
    in
    { t with words }
  end
  else begin
    let words = Array.copy t.words in
    let stride = 1 lsl (i - 6) in
    let j = ref 0 in
    while !j < Array.length words do
      Array.blit words (!j + stride) words !j stride;
      j := !j + (2 * stride)
    done;
    { t with words }
  end

let exists t i = bor (cofactor0 t i) (cofactor1 t i)

let depends_on t i = not (equal (cofactor0 t i) (cofactor1 t i))

let support t =
  let rec loop i acc =
    if i < 0 then acc else loop (i - 1) (if depends_on t i then i :: acc else acc)
  in
  loop (t.nvars - 1) []

let eval t assignment =
  if Array.length assignment <> t.nvars then
    invalid_arg "Truth.eval: assignment length mismatch";
  let m = ref 0 in
  for i = 0 to t.nvars - 1 do
    if assignment.(i) then m := !m lor (1 lsl i)
  done;
  get t !m

let shrink_to_support t =
  let sup = support t in
  let n' = List.length sup in
  let sup_arr = Array.of_list sup in
  let shrunk =
    of_fun n' (fun m' ->
        (* Spread the compact minterm back onto the original variables;
           non-support variables are don't-care, fix them to 0. *)
        let m = ref 0 in
        Array.iteri (fun j v -> if (m' lsr j) land 1 = 1 then m := !m lor (1 lsl v)) sup_arr;
        get t !m)
  in
  (shrunk, sup)

let expand t ~into ~placement =
  check_nvars into;
  if Array.length placement <> t.nvars then
    invalid_arg "Truth.expand: placement length mismatch";
  Array.iter
    (fun p -> if p < 0 || p >= into then invalid_arg "Truth.expand: placement out of range")
    placement;
  of_fun into (fun m ->
      let m' = ref 0 in
      Array.iteri (fun i p -> if (m lsr p) land 1 = 1 then m' := !m' lor (1 lsl i)) placement;
      get t !m')

let to_hex t =
  let hex_digits = max 1 (num_bits t / 4) in
  let buf = Buffer.create hex_digits in
  for d = hex_digits - 1 downto 0 do
    let nibble =
      if num_bits t < 4 then Int64.to_int (Int64.logand t.words.(0) (tail_mask t.nvars))
      else
        let bit = d * 4 in
        let w = bit lsr 6 and off = bit land 63 in
        Int64.to_int (Int64.logand (Int64.shift_right_logical t.words.(w) off) 0xFL)
    in
    Buffer.add_char buf "0123456789abcdef".[nibble]
  done;
  Buffer.contents buf

let pp ppf t = Format.fprintf ppf "0x%s" (to_hex t)
