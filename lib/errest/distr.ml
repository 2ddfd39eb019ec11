module Bitvec = Logic.Bitvec

type t =
  | Unif
  | Enum of {
      npis : int;
      rows : bool array array;
      weights : float array;
    }

let unif = Unif

let validate_enum ~rows ~weights =
  let n = Array.length rows in
  if n = 0 then Error "enumerated distribution has no rows"
  else if Array.length weights <> n then Error "row/weight count mismatch"
  else begin
    let npis = Array.length rows.(0) in
    if Array.exists (fun r -> Array.length r <> npis) rows then
      Error "ragged pattern rows"
    else if
      Array.exists (fun w -> not (Float.is_finite w) || w < 0.0) weights
    then Error "weights must be finite and non-negative"
    else if Array.fold_left ( +. ) 0.0 weights <= 0.0 then
      Error "weights sum to zero"
    else Ok (Enum { npis; rows; weights })
  end

let enum ~rows ~weights =
  match validate_enum ~rows ~weights with
  | Ok d -> d
  | Error msg -> invalid_arg ("Distr.enum: " ^ msg)

let is_enum = function Unif -> false | Enum _ -> true
let npis = function Unif -> None | Enum { npis; _ } -> Some npis

let equal a b =
  match (a, b) with
  | Unif, Unif -> true
  | Enum a, Enum b ->
      a.npis = b.npis && a.rows = b.rows
      && Array.length a.weights = Array.length b.weights
      && Array.for_all2 (fun x y -> Float.equal x y) a.weights b.weights
  | _ -> false

let validate_npis t ~npis:n =
  match t with
  | Unif -> Ok ()
  | Enum { npis; _ } ->
      if npis = n then Ok ()
      else
        Error
          (Printf.sprintf "distribution patterns have %d inputs, circuit has %d"
             npis n)

let row_to_string row =
  String.init (Array.length row) (fun i -> if row.(i) then '1' else '0')

let row_of_string s =
  let ok = ref true in
  let row =
    Array.init (String.length s) (fun i ->
        match s.[i] with
        | '0' -> false
        | '1' -> true
        | _ ->
            ok := false;
            false)
  in
  if !ok && String.length s > 0 then Some row else None

(* One line, no newlines: what the journal's key-value manifest stores.
   Weights are hex floats so the round trip is bit-exact. *)
let to_string = function
  | Unif -> "unif"
  | Enum { rows; weights; _ } ->
      let cell i = Printf.sprintf "%s:%h" (row_to_string rows.(i)) weights.(i) in
      "enum " ^ String.concat "," (List.init (Array.length rows) cell)

let of_string s =
  let s = String.trim s in
  if s = "unif" then Ok Unif
  else
    match String.index_opt s ' ' with
    | Some sp when String.sub s 0 sp = "enum" ->
        let body = String.sub s (sp + 1) (String.length s - sp - 1) in
        let cells = String.split_on_char ',' body in
        let parse cell =
          match String.index_opt cell ':' with
          | None -> Error (Printf.sprintf "bad distribution cell %S" cell)
          | Some c -> (
              let bits = String.sub cell 0 c in
              let w = String.sub cell (c + 1) (String.length cell - c - 1) in
              match (row_of_string bits, float_of_string_opt w) with
              | Some row, Some weight -> Ok (row, weight)
              | None, _ -> Error (Printf.sprintf "bad pattern %S" bits)
              | _, None -> Error (Printf.sprintf "bad weight %S" w))
        in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | cell :: rest -> (
              match parse cell with
              | Ok c -> go (c :: acc) rest
              | Error _ as e -> e)
        in
        Result.bind (go [] cells) (fun cells ->
            let rows = Array.of_list (List.map fst cells) in
            let weights = Array.of_list (List.map snd cells) in
            validate_enum ~rows ~weights)
    | _ -> Error (Printf.sprintf "bad distribution %S (unif | enum ...)" s)

(* Pattern-file format (the ResubALS ENUM input): one "bitstring weight"
   pair per line, leftmost character = PI 0; '#' starts a comment. *)
let parse_lines lines =
  let cells = ref [] and err = ref None and lineno = ref 0 in
  List.iter
    (fun line ->
      incr lineno;
      if !err = None then begin
        let line =
          match String.index_opt line '#' with
          | Some h -> String.sub line 0 h
          | None -> line
        in
        let line = String.trim line in
        if line <> "" then begin
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ bits; w ] -> (
              match (row_of_string bits, float_of_string_opt w) with
              | Some row, Some weight -> cells := (row, weight) :: !cells
              | None, _ ->
                  err := Some (Printf.sprintf "line %d: bad pattern %S" !lineno bits)
              | _, None ->
                  err := Some (Printf.sprintf "line %d: bad weight %S" !lineno w))
          | _ ->
              err :=
                Some
                  (Printf.sprintf "line %d: expected \"bitstring weight\"" !lineno)
        end
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None ->
      let cells = List.rev !cells in
      let rows = Array.of_list (List.map fst cells) in
      let weights = Array.of_list (List.map snd cells) in
      validate_enum ~rows ~weights

let load path =
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> (
      match parse_lines lines with
      | Ok d -> Ok d
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error msg -> Error msg

let signatures = function
  | Unif -> invalid_arg "Distr.signatures: uniform distribution is not enumerated"
  | Enum { npis; rows; _ } ->
      let len = Array.length rows in
      Array.init npis (fun i -> Bitvec.init len (fun m -> rows.(m).(i)))

let round_weights = function
  | Unif -> None
  | Enum { weights; _ } -> Some (Array.copy weights)

let sample t rng ~npis:n ~len =
  match t with
  | Unif -> Sim.Patterns.random rng ~npis:n ~len
  | Enum { npis; rows; weights } ->
      if npis <> n then invalid_arg "Distr.sample: PI count mismatch";
      let total = Array.fold_left ( +. ) 0.0 weights in
      let cum = Array.make (Array.length weights) 0.0 in
      let acc = ref 0.0 in
      Array.iteri
        (fun i w ->
          acc := !acc +. w;
          cum.(i) <- !acc)
        weights;
      let pick u =
        (* first index whose cumulative weight exceeds [u] *)
        let lo = ref 0 and hi = ref (Array.length cum - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cum.(mid) > u then hi := mid else lo := mid + 1
        done;
        !lo
      in
      let chosen = Array.init len (fun _ -> pick (Logic.Rng.float rng *. total)) in
      Array.init n (fun i -> Bitvec.init len (fun m -> rows.(chosen.(m)).(i)))
