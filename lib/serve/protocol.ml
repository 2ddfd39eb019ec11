module Record = Circuit_io.Record

type approx_params = {
  metric : Errest.Metrics.kind;
  threshold : float;
  seed : int;
  eval_rounds : int;
  max_iters : int;
}

type request =
  | Ping
  | Load of {
      session : string;
      circuit : string;
      graph : string option;
      priority : int;
    }
  | Approx of {
      session : string;
      params : approx_params;
      deadline_s : float option;
    }
  | Metrics of { session : string; metric : Errest.Metrics.kind }
  | Cec of { session : string }
  | Get of { session : string }
  | Status
  | Evict of { session : string }
  | Shutdown

type error_code =
  | Timeout
  | Overloaded
  | Shedding
  | No_session
  | Bad_request
  | Busy
  | Internal

type response =
  | Ok of (string * string) list * string option
  | Err of { code : error_code; detail : string; retry_after_s : float option }

let code_to_string = function
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Shedding -> "shedding"
  | No_session -> "no-session"
  | Bad_request -> "bad-request"
  | Busy -> "busy"
  | Internal -> "internal"

let code_of_string = function
  | "timeout" -> Some Timeout
  | "overloaded" -> Some Overloaded
  | "shedding" -> Some Shedding
  | "no-session" -> Some No_session
  | "bad-request" -> Some Bad_request
  | "busy" -> Some Busy
  | "internal" -> Some Internal
  | _ -> None

let valid_session_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && s.[0] <> '.'
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       s

(* ---------- Encoding ---------- *)

(* The field [key] when the float [v] is set. *)
let optional_float key v = Option.to_list (Option.map (fun v -> (key, Record.float_to_string v)) v)

let encode_request req =
  let i = string_of_int and f = Record.float_to_string in
  let session s = [ ("session", s) ] in
  let verb, fields, graph =
    match req with
    | Ping -> ("ping", [], None)
    | Load { session = s; circuit; graph; priority } ->
        ("load", session s @ [ ("circuit", circuit); ("priority", i priority) ], graph)
    | Approx { session = s; params = p; deadline_s } ->
        ( "approx",
          session s
          @ [
              ("metric", Errest.Metrics.kind_to_string p.metric);
              ("threshold", f p.threshold);
              ("seed", i p.seed);
              ("eval-rounds", i p.eval_rounds);
              ("max-iters", i p.max_iters);
            ]
          @ optional_float "deadline" deadline_s,
          None )
    | Metrics { session = s; metric } ->
        ("metrics", session s @ [ ("metric", Errest.Metrics.kind_to_string metric) ], None)
    | Cec { session = s } -> ("cec", session s, None)
    | Get { session = s } -> ("get", session s, None)
    | Status -> ("status", [], None)
    | Evict { session = s } -> ("evict", session s, None)
    | Shutdown -> ("shutdown", [], None)
  in
  Record.to_string ~header:"alsrac-req 1" ?graph ~graph_newline:true (("verb", verb) :: fields)

let encode_response resp =
  let fields, graph =
    match resp with
    | Ok (kvs, graph) -> (("status", "ok") :: kvs, graph)
    | Err { code; detail; retry_after_s } ->
        ( [
            ("status", "err");
            ("code", code_to_string code);
            ("detail", String.escaped detail);
          ]
          @ optional_float "retry-after" retry_after_s,
          None )
  in
  Record.to_string ~header:"alsrac-resp 1" ?graph ~graph_newline:true fields

(* ---------- Decoding ---------- *)

let decode_request payload =
  let r = Record.of_string ~format:"protocol request" ~header:"alsrac-req 1" payload in
  let session () =
    let s = Record.string r "session" in
    if valid_session_name s then s else Record.fail r "invalid session name %S" s
  in
  let metric () = Record.get r "metric" Errest.Metrics.kind_of_string in
  match Record.string r "verb" with
  | "ping" -> Ping
  | "load" ->
      Load
        {
          session = session ();
          circuit = Record.string r "circuit";
          graph = Record.graph r;
          priority = Record.int r "priority";
        }
  | "approx" ->
      Approx
        {
          session = session ();
          params =
            {
              metric = metric ();
              threshold = Record.float r "threshold";
              seed = Record.int r "seed";
              eval_rounds = Record.int r "eval-rounds";
              max_iters = Record.int r "max-iters";
            };
          deadline_s = Record.get_opt r "deadline" float_of_string_opt;
        }
  | "metrics" -> Metrics { session = session (); metric = metric () }
  | "cec" -> Cec { session = session () }
  | "get" -> Get { session = session () }
  | "status" -> Status
  | "evict" -> Evict { session = session () }
  | "shutdown" -> Shutdown
  | v -> Record.fail r "unknown verb %S" v

let unescape s = try Some (Scanf.unescaped s) with Scanf.Scan_failure _ -> None

let decode_response payload =
  let r = Record.of_string ~format:"protocol response" ~header:"alsrac-resp 1" payload in
  match Record.string r "status" with
  | "ok" -> Ok (List.filter (fun (k, _) -> k <> "status") (Record.fields r), Record.graph r)
  | "err" ->
      Err
        {
          code = Record.get r "code" code_of_string;
          detail = Record.get r "detail" unescape;
          retry_after_s = Record.get_opt r "retry-after" float_of_string_opt;
        }
  | s -> Record.fail r "bad status %S" s
