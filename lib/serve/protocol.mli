(** Request/response grammar of the [alsrac serve] protocol (version 1).

    A payload (one transport frame) is a {!Circuit_io.Record}, the line
    record the journal and the explore store also use:

    {v
    request  ::= "alsrac-req 1" NL field* [graph] "end" NL?
    response ::= "alsrac-resp 1" NL field* [graph] "end" NL?
    field    ::= KEY " " VALUE NL
    graph    ::= "graph " NBYTES " " CHECKSUM NL RAWBYTES NL
    v}

    Keys are single tokens; a value is the rest of its line.  Floats are
    hex literals ({!Circuit_io.Record.float_to_string}), so decode/encode
    round-trips bit-exactly.  A [graph] section carries an AIGER-serialized
    circuit as raw bytes, length-prefixed and guarded by the checksum the
    transport's frame trailer also uses.

    Decoding hostile input never allocates unbounded memory and raises
    [Failure] on any violation; the daemon maps that to a [Bad_request]
    reply and counts a malformed strike against the connection. *)

type approx_params = {
  metric : Errest.Metrics.kind;
  threshold : float;
  seed : int;
  eval_rounds : int;
  max_iters : int;
}
(** The knobs a client may set on a resident approximation run; everything
    else comes from {!Core.Config.default}. *)

type request =
  | Ping
  | Load of {
      session : string;
      circuit : string;  (** named benchmark, or ["-"] with [graph] set *)
      graph : string option;  (** AIGER bytes when shipping a circuit *)
      priority : int;  (** higher sheds later under overload *)
    }
  | Approx of {
      session : string;
      params : approx_params;
      deadline_s : float option;  (** per-request budget override *)
    }
  | Metrics of { session : string; metric : Errest.Metrics.kind }
  | Cec of { session : string }
  | Get of { session : string }  (** fetch the session's current circuit *)
  | Status
  | Evict of { session : string }
  | Shutdown

type error_code =
  | Timeout  (** deadline expired; session rolled back to last snapshot *)
  | Overloaded  (** queue full; retry after the hinted delay *)
  | Shedding  (** queued request dropped for a higher-priority one *)
  | No_session
  | Bad_request
  | Busy  (** session already has a running/queued request *)
  | Internal

type response =
  | Ok of (string * string) list * string option
      (** key/value results plus an optional graph blob *)
  | Err of { code : error_code; detail : string; retry_after_s : float option }

val code_to_string : error_code -> string

val valid_session_name : string -> bool
(** Session names become state-directory names: nonempty,
    [\[A-Za-z0-9._-\]] only, no leading dot, at most 64 bytes. *)

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response
