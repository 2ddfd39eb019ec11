module Bitvec = Logic.Bitvec

type entry = Unseen | Value of bool

type t = { divisors : int array; table : entry array; care_count : int }

exception Conflict

let scan ?mask ~sigs ~node ~divisors ~rounds () =
  let k = Array.length divisors in
  if k > Logic.Truth.max_vars then invalid_arg "Care.scan: too many divisors";
  (* A target among its own divisors would "resubstitute" a node by itself —
     a combinational loop once the replacement is rewired.  Enumeration
     ([Divisor]) never proposes it; this guard keeps direct callers honest. *)
  if Array.exists (fun d -> d = node) divisors then
    invalid_arg "Care.scan: target node cannot be its own divisor";
  let table = Array.make (1 lsl k) Unseen in
  let care_count = ref 0 in
  let div_words = Array.map (fun d -> Bitvec.unsafe_words sigs.(d)) divisors in
  let node_words = Bitvec.unsafe_words sigs.(node) in
  let mask_words = Option.map Bitvec.unsafe_words mask in
  let wb = Bitvec.word_bits in
  (* Each word is peeled tuple by tuple: the lowest round left names a
     tuple, k mask operations select every round of the word showing it,
     and the target bits under that selection give the tuple's value at
     once.  The first tuple seen with both target values ends the scan. *)
  match
    for w = 0 to ((rounds + wb - 1) / wb) - 1 do
      let left = rounds - (w * wb) in
      let valid = if left >= wb then Bitvec.word_mask else (1 lsl left) - 1 in
      let rest = ref (match mask_words with None -> valid | Some mw -> valid land mw.(w)) in
      let nw = node_words.(w) in
      while !rest <> 0 do
        let low = !rest land (- !rest) in
        let sel = ref !rest and tuple = ref 0 in
        for i = 0 to k - 1 do
          let d = div_words.(i).(w) in
          if d land low <> 0 then begin
            sel := !sel land d;
            tuple := !tuple lor (1 lsl i)
          end
          else sel := !sel land lnot d
        done;
        let ones = !sel land nw in
        let v = ones <> 0 in
        if v && ones <> !sel then raise_notrace Conflict;
        (match table.(!tuple) with
        | Unseen ->
            table.(!tuple) <- Value v;
            incr care_count
        | Value v0 -> if v0 <> v then raise_notrace Conflict);
        rest := !rest land lnot !sel
      done
    done
  with
  | () -> Some { divisors; table; care_count = !care_count }
  | exception Conflict -> None

let care_tuples t =
  let acc = ref [] in
  for i = Array.length t.table - 1 downto 0 do
    if t.table.(i) <> Unseen then acc := i :: !acc
  done;
  !acc
