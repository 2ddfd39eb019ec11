let tables (care : Care.t) =
  let k = Array.length care.Care.divisors in
  let on = ref (Logic.Truth.const0 k) and dc = ref (Logic.Truth.const0 k) in
  Array.iteri
    (fun tuple entry ->
      match entry with
      | Care.Value true -> on := Logic.Truth.set !on tuple true
      | Care.Value false -> ()
      | Care.Unseen -> dc := Logic.Truth.set !dc tuple true)
    care.Care.table;
  (!on, !dc)

let minimize care =
  let on, dc = tables care in
  Logic.Espresso.minimize ~on ~dc

(* A care table over k divisors is a base-3 number: one digit per tuple,
   0 = unseen, 1 = observed 0, 2 = observed 1, tuple 0 least significant. *)
let digit = function Care.Unseen -> 0 | Care.Value false -> 1 | Care.Value true -> 2

let care_of_code k code =
  let rest = ref code in
  let table =
    Array.init (1 lsl k) (fun _ ->
        let d = !rest mod 3 in
        rest := !rest / 3;
        match d with 0 -> Care.Unseen | 1 -> Care.Value false | _ -> Care.Value true)
  in
  let care_count = Array.fold_left (fun n e -> if digit e = 0 then n else n + 1) 0 table in
  { Care.divisors = Array.init k Fun.id; table; care_count }

(* Every LAC divisor set has one or two divisors, so its care table is one
   of 3^2 + 3^4 = 90.  Espresso minimizes each of them once, at start-up
   (eagerly: concurrent domains must never race on a lazy value). *)
let small =
  let all k n = Array.init n (fun code -> minimize (care_of_code k code)) in
  [| [||]; all 1 9; all 2 81 |]

let derive (care : Care.t) =
  let table = care.Care.table in
  let k = Array.length care.Care.divisors in
  if k = 1 || k = 2 then begin
    let code = ref 0 in
    for i = Array.length table - 1 downto 0 do
      code := (!code * 3) + digit table.(i)
    done;
    small.(k).(!code)
  end
  else minimize care

let expr_of_cover = Logic.Factor.of_cover

let attempt ?mask ~sigs ~rounds ~node ~savings divisors =
  Care.scan ?mask ~sigs ~node ~divisors ~rounds ()
  |> Option.map (fun care ->
         let cover = derive care in
         let expr = expr_of_cover cover in
         (cover, expr, savings - Logic.Factor.and2_cost expr))
