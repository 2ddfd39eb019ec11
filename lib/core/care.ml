module Bitvec = Logic.Bitvec

type entry = Unseen | Value of bool | Conflict

type t = { divisors : int array; table : entry array; care_count : int }

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
  let wb = Bitvec.word_bits in
  let record tuple v =
    match table.(tuple) with
    | Unseen ->
        table.(tuple) <- Value v;
        incr care_count
    | Value v0 -> if v0 <> v then table.(tuple) <- Conflict
    | Conflict -> ()
  in
  let num_words = ((rounds - 1) / wb) + 1 in
  let full = Bitvec.word_mask in
  let mask_words = Option.map Bitvec.unsafe_words mask in
  let valid_of w base =
    let v = if rounds - base >= wb then full else (1 lsl (rounds - base)) - 1 in
    match mask_words with None -> v | Some mw -> v land mw.(w)
  in
  (* Word-parallel presence/conflict detection: for each divisor tuple,
     build the mask of rounds exhibiting it and compare the target bits
     under the mask — O(words) instead of O(rounds). *)
  let record_masked tuple mask nw =
    if mask <> 0 then begin
      let ones = mask land nw <> 0 and zeros = mask land lnot nw <> 0 in
      if ones && zeros then begin
        (match table.(tuple) with Unseen -> incr care_count | Value _ | Conflict -> ());
        table.(tuple) <- Conflict
      end
      else record tuple ones
    end
  in
  (match k with
  | 1 ->
      let d0 = div_words.(0) in
      for w = 0 to num_words - 1 do
        let base = w * wb in
        let valid = valid_of w base in
        let dw = d0.(w) and nw = node_words.(w) in
        record_masked 0 (lnot dw land valid) nw;
        record_masked 1 (dw land valid) nw
      done
  | 2 ->
      let d0 = div_words.(0) and d1 = div_words.(1) in
      for w = 0 to num_words - 1 do
        let base = w * wb in
        let valid = valid_of w base in
        let dw0 = d0.(w) and dw1 = d1.(w) and nw = node_words.(w) in
        record_masked 0 (lnot dw0 land lnot dw1 land valid) nw;
        record_masked 1 (dw0 land lnot dw1 land valid) nw;
        record_masked 2 (lnot dw0 land dw1 land valid) nw;
        record_masked 3 (dw0 land dw1 land valid) nw
      done
  | _ ->
      for w = 0 to num_words - 1 do
        let base = w * wb in
        let limit = min wb (rounds - base) in
        let valid = valid_of w base in
        let nw = node_words.(w) in
        for off = 0 to limit - 1 do
          if (valid lsr off) land 1 = 1 then begin
            let tuple = ref 0 in
            for i = 0 to k - 1 do
              tuple := !tuple lor (((div_words.(i).(w) lsr off) land 1) lsl i)
            done;
            record !tuple ((nw lsr off) land 1 = 1)
          end
        done
      done);
  { divisors; table; care_count = !care_count }

let feasible t = Array.for_all (function Conflict -> false | Unseen | Value _ -> true) t.table

let care_tuples t =
  let acc = ref [] in
  for i = Array.length t.table - 1 downto 0 do
    match t.table.(i) with Unseen -> () | Value _ | Conflict -> acc := i :: !acc
  done;
  !acc
