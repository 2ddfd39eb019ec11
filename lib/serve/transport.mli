(** Framed transport over Unix-domain sockets.

    Every message travels as one frame:

    {v
    "ALS1"  magic, 4 bytes
    length  payload byte count, 4 bytes big-endian
    payload
    check   payload checksum (Circuit_io.Record.checksum), 4 bytes big-endian
    v}

    The decoder is hostile-input-hardened: the magic must match, the length
    must fit [0 .. 64 MiB] (a larger length is rejected without
    allocating), the checksum must verify, and every
    read runs under a deadline — a peer that sends half a frame and stalls
    costs one timeout, never a wedged thread.  Decode failures are
    non-recoverable for the connection (the stream position is unknown), so
    they raise {!Malformed} and the caller must close the socket.

    Fault injection ({!Core.Fault} [Io_*] kinds): [send] and [recv] accept
    the connection's fault plan plus a per-connection operation counter and
    deliberately misbehave at the planned operation — a short read
    (receiver stops mid-payload), a mid-frame EOF (sender truncates after
    the header), a delayed write.  With the empty plan every hook is a
    no-op. *)

exception Closed
(** Clean EOF at a frame boundary: the peer hung up between frames. *)

exception Timeout
(** The read deadline expired (possibly mid-frame). *)

exception Malformed of string
(** Bad magic, oversized or negative length, checksum mismatch, or EOF in
    the middle of a frame.  The connection must be dropped. *)

val listen : path:string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket, unlinking a stale socket file
    first.  Raises [Failure] if the path is unusable. *)

val accept : ?timeout_s:float -> stop:(unit -> bool) -> Unix.file_descr -> Unix.file_descr option
(** Accept the next connection, polling [stop] every [timeout_s] (default
    0.25s); [None] once [stop] returns [true]. *)

val connect : path:string -> Unix.file_descr
(** Connect to a daemon socket.  Raises [Unix.Unix_error] as usual. *)

val send :
  ?faults:Core.Fault.plan -> ?nth:int -> Unix.file_descr -> string -> unit
(** Write one frame.  [nth] is the connection's send counter (for fault
    lookup).  An injected mid-frame EOF truncates the frame and raises
    {!Core.Fault.Injected}; the caller must close the connection. *)

val recv :
  ?faults:Core.Fault.plan ->
  ?nth:int ->
  ?timeout_s:float ->
  Unix.file_descr ->
  string
(** Read one frame's payload.  [timeout_s] (default 30s) bounds the whole
    frame, header included.  Raises {!Closed}, {!Timeout} or
    {!Malformed}. *)
