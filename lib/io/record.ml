let float_to_string f =
  if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else Printf.sprintf "%h" f

let checksum s =
  let h = ref 0 in
  String.iter (fun ch -> h := ((!h * 131) + Char.code ch) land 0x3FFFFFFF) s;
  !h

(* ---------- Writing ---------- *)

let to_string ?header ?graph ?(graph_newline = false) ?(end_marker = true) fields =
  let b = Buffer.create 256 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  Option.iter line header;
  List.iter (fun (k, v) -> line (k ^ " " ^ v)) fields;
  Option.iter
    (fun bytes ->
      line (Printf.sprintf "graph %d %d" (String.length bytes) (checksum bytes));
      Buffer.add_string b bytes;
      if graph_newline then Buffer.add_char b '\n')
    graph;
  if end_marker then line "end";
  Buffer.contents b

(* ---------- Reading ---------- *)

type t = { format : string; fields : (string * string) list; graph : string option }

let fields r = r.fields
let graph r = r.graph
let failf format fmt = Printf.ksprintf (fun s -> failwith (format ^ ": " ^ s)) fmt
let fail r fmt = failf r.format fmt

let value ~format key parse v =
  match parse v with Some x -> x | None -> failf format "bad %s %S" key v

let of_string ~format ?header ?(end_marker = true) text =
  let len = String.length text in
  let pos = ref 0 in
  (* The next line without its newline; [None] at the end of the text. *)
  let next_line () =
    if !pos >= len then None
    else
      let stop = Option.value (String.index_from_opt text !pos '\n') ~default:len in
      let l = String.sub text !pos (stop - !pos) in
      pos := min len (stop + 1);
      Some l
  in
  let read_graph spec =
    let n, sum =
      match String.split_on_char ' ' spec with
      | [ n; sum ] ->
          (value ~format "graph length" int_of_string_opt n,
           value ~format "graph checksum" int_of_string_opt sum)
      | _ -> failf format "bad graph line %S" spec
    in
    if n < 0 || n > len - !pos then failf format "graph length %d runs past the end" n;
    let bytes = String.sub text !pos n in
    pos := !pos + n;
    if !pos < len && text.[!pos] = '\n' then incr pos;
    if checksum bytes <> sum then failf format "graph checksum mismatch";
    bytes
  in
  Option.iter
    (fun h ->
      match next_line () with
      | Some l when l = h -> ()
      | l -> failf format "bad header %S" (Option.value l ~default:""))
    header;
  let rec body fields graph =
    match next_line () with
    | None when end_marker -> failf format "truncated: no end line"
    | None -> (fields, graph)
    | Some "end" when end_marker ->
        if !pos < len then failf format "bytes after the end line";
        (fields, graph)
    | Some l -> (
        match String.index_opt l ' ' with
        | None -> failf format "bad line %S" l
        | Some i -> (
            let k = String.sub l 0 i and v = String.sub l (i + 1) (String.length l - i - 1) in
            match (k, graph) with
            | "graph", Some _ -> failf format "second graph section"
            | "graph", None -> body fields (Some (read_graph v))
            | _ -> body ((k, v) :: fields) graph))
  in
  let fields, graph = body [] None in
  { format; fields = List.rev fields; graph }

(* ---------- Typed fields ---------- *)

let string r key =
  match List.assoc_opt key r.fields with
  | Some v -> v
  | None -> fail r "missing key %s" key

let get_opt r key parse =
  Option.map (value ~format:r.format key parse) (List.assoc_opt key r.fields)

let get r key parse = value ~format:r.format key parse (string r key)
let int r key = get r key int_of_string_opt
let float r key = get r key float_of_string_opt
