(** Line records: the one text format of everything the flow journal, the
    explore store and the serve daemon write to disk or send over a socket
    (journal manifests and checkpoints, sweep manifests and point files,
    protocol requests and responses, session manifests).

    {v
    record ::= [HEADER NL] field* [graph] ["end" [NL]]
    field  ::= KEY " " VALUE NL
    graph  ::= "graph " NBYTES " " CHECKSUM NL BYTES [NL]
    v}

    A key is everything before the first space of its line and the value is
    the rest of the line, so a value may hold spaces but no newline.  A
    record holds at most one [graph] section: [NBYTES] raw bytes (AIGER
    text) guarded by their length and {!checksum}.  Formats that end with
    [end] detect a truncated file: a reader rejects a record whose [end]
    line is missing, or that carries bytes after it.

    Every reader failure is a [Failure] whose message starts with the
    format's name, and reading never allocates more than the text it
    reads. *)

val float_to_string : float -> string
(** The one float spelling: a hex literal ([%h]), or [inf] / [-inf], so
    [float_of_string] reads back the same bits. *)

val checksum : string -> int
(** 30-bit rolling checksum of graph sections and transport frames: cheap,
    and it catches every single-byte change; it defends against torn and
    corrupt bytes, not against adversarial collisions. *)

(** {1 Writing} *)

val to_string :
  ?header:string ->
  ?graph:string ->
  ?graph_newline:bool ->
  ?end_marker:bool ->
  (string * string) list ->
  string
(** [to_string ?header ?graph fields] prints the header line, one line per
    field in order, then the graph section, then [end] (unless
    [end_marker] is [false]).  [graph_newline] (default [false]) adds a
    newline after the graph bytes, as the serve protocol does; readers
    accept both. *)

(** {1 Reading} *)

type t
(** A parsed record. *)

val of_string : format:string -> ?header:string -> ?end_marker:bool -> string -> t
(** Parse a record.  [format] names it in error messages.  Raises
    [Failure] on a header other than [header], a line without a space, a
    malformed graph line, a graph length that runs past the end of the
    text, a checksum mismatch, a second graph section, and — unless
    [end_marker] is [false] — a missing [end] line or bytes after it. *)

val fields : t -> (string * string) list
(** Every field in text order, the graph section excluded. *)

val graph : t -> string option
(** The verified bytes of the graph section. *)

val fail : t -> ('a, unit, string, 'b) format4 -> 'a
(** [fail r fmt ...] raises [Failure] with the record's format name. *)

val string : t -> string -> string
(** The value of the first field with this key; [Failure] naming the
    format and the key when there is none. *)

val get : t -> string -> (string -> 'a option) -> 'a
(** [get r key parse] is [parse] of {!string}; [Failure] naming the
    format, the key and the value when [parse] returns [None]. *)

val get_opt : t -> string -> (string -> 'a option) -> 'a option
(** As {!get}, but [None] when the key is absent. *)

val int : t -> string -> int
val float : t -> string -> float

val value : format:string -> string -> (string -> 'a option) -> string -> 'a
(** [value ~format key parse v]: [parse v], or a [Failure] naming [format],
    [key] and [v] — for values that are parsed outside a record, such as
    list elements. *)
