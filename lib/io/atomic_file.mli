(** Atomic whole-file replacement (write-to-temp + rename).

    All circuit and journal output in this repository goes through {!write},
    so a crash mid-write can never leave a truncated or half-updated file on
    disk: the target either still holds its previous contents or the complete
    new contents. *)

val write : string -> string -> unit
(** [write path contents] atomically replaces [path] with [contents].  The
    temporary file lives next to [path] (same directory, hence same
    filesystem) so the final rename is atomic.  Raises [Sys_error] on I/O
    failure, in which case the temporary file is removed and [path] is left
    untouched. *)

val read : string -> string
(** Read a whole file into a string.  Raises [Sys_error] if unreadable. *)

val sweep_debris : string -> unit
(** Remove stranded [*.tmp.*] temporaries (a crash between staging and
    rename) from one directory, non-recursively.  Every store whose resume
    path lists its directory calls this on (re)open.  Removal races between
    concurrent openers degrade to a loud rename failure on the loser's
    in-flight write, never to corruption; missing directories are ignored. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; one that exists already,
    or that a racing process creates first, is fine. *)

val rm_rf : string -> unit
(** Remove a file or a directory tree; a missing path is fine.  A symlink
    is removed itself, never followed. *)
