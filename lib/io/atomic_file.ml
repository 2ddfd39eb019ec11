(* Crash-safe file replacement: write the full contents to a temporary file
   in the destination directory, then rename it over the target.  On POSIX
   systems rename within a filesystem is atomic, so a reader (or a process
   resuming after a crash) sees either the old contents or the new — never a
   truncated mix. *)

let counter = ref 0

let temp_path path =
  incr counter;
  Printf.sprintf "%s.tmp.%d.%d" path (Hashtbl.hash (Sys.executable_name, Sys.time ())) !counter

let write path contents =
  let tmp = temp_path path in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     (* Push the bytes to the OS before the rename makes them visible. *)
     flush oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try Sys.rename tmp path
  with Sys_error _ as e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A process killed between [open_out_bin] and [Sys.rename] strands its
   temporary file.  Exact-path readers never see the debris, but directory
   scans do, so stores sweep their directories on (re)open.  The marker test
   lives here, next to [temp_path], so the two can never drift apart. *)
let has_tmp_marker name =
  let rec go i =
    i + 5 <= String.length name
    && (String.sub name i 5 = ".tmp." || go (i + 1))
  in
  go 0

let sweep_debris dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun name ->
        if has_tmp_marker name then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> () (* a racing process won *)
  end

(* [lstat], not [stat]: a symlink is unlinked, never followed. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
