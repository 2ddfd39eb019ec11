exception Injected of string

exception Killed

type kind =
  | Flip_signatures of { iteration : int; bit : int }
  | Corrupt_lac of { iteration : int }
  | Raise_at of { iteration : int }
  | Kill_after of { applied : int }
  | Io_short_read of { nth : int }
  | Io_eof_mid_frame of { nth : int }
  | Io_delay_write of { nth : int; ms : int }

type plan = kind list

let none = []

let flip_signatures plan ~iteration =
  List.find_map
    (function
      | Flip_signatures f when f.iteration = iteration -> Some f.bit
      | _ -> None)
    plan

let corrupt_lac plan ~iteration =
  List.exists (function Corrupt_lac f -> f.iteration = iteration | _ -> false) plan

let should_raise plan ~iteration =
  List.exists (function Raise_at f -> f.iteration = iteration | _ -> false) plan

let should_kill plan ~applied =
  List.exists (function Kill_after f -> applied >= f.applied | _ -> false) plan

(* ---------- Socket / IO faults (lib/serve transport hooks) ---------- *)

let io_short_read plan ~nth =
  List.exists (function Io_short_read f -> f.nth = nth | _ -> false) plan

let io_eof_mid_frame plan ~nth =
  List.exists (function Io_eof_mid_frame f -> f.nth = nth | _ -> false) plan

let io_delay_write plan ~nth =
  List.find_map
    (function Io_delay_write f when f.nth = nth -> Some f.ms | _ -> None)
    plan

(* ---------- Plan spec strings (--fault-spec) ---------- *)

let kind_of_string s =
  let bad () = failwith (Printf.sprintf "fault spec: cannot parse %S" s) in
  let int_exn v = match int_of_string_opt v with Some n -> n | None -> bad () in
  match String.index_opt s '@' with
  | None -> bad ()
  | Some at -> (
      let name = String.sub s 0 at in
      let arg = String.sub s (at + 1) (String.length s - at - 1) in
      let one () = int_exn arg in
      let two () =
        match String.index_opt arg ':' with
        | None -> bad ()
        | Some c ->
            ( int_exn (String.sub arg 0 c),
              int_exn (String.sub arg (c + 1) (String.length arg - c - 1)) )
      in
      match name with
      | "flip-sigs" ->
          let iteration, bit = two () in
          Flip_signatures { iteration; bit }
      | "corrupt-lac" -> Corrupt_lac { iteration = one () }
      | "raise" -> Raise_at { iteration = one () }
      | "kill" -> Kill_after { applied = one () }
      | "short-read" -> Io_short_read { nth = one () }
      | "eof-mid-frame" -> Io_eof_mid_frame { nth = one () }
      | "delay-write" ->
          let nth, ms = two () in
          Io_delay_write { nth; ms }
      | _ -> bad ())

let plan_of_string s =
  String.split_on_char ',' s
  |> List.filter_map (fun part ->
         let part = String.trim part in
         if part = "" then None else Some (kind_of_string part))
