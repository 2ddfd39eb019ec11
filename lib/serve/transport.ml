exception Closed
exception Timeout
exception Malformed of string

let magic = "ALS1"
let header_bytes = 8
let max_frame_bytes = 1 lsl 26

let put_be32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_be32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* ---------- Sockets ---------- *)

let listen ~path =
  if String.length path >= 104 then
    failwith (Printf.sprintf "serve: socket path too long (%d bytes): %s"
                (String.length path) path);
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "serve: %s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     failwith (Printf.sprintf "serve: cannot listen on %s: %s" path
                 (Unix.error_message e)));
  fd

let accept ?(timeout_s = 0.25) ~stop fd =
  let rec loop () =
    if stop () then None
    else
      match Unix.select [ fd ] [] [] timeout_s with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept fd with
          | conn, _ -> Some conn
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> loop ())
  in
  loop ()

let connect ~path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

(* ---------- Framed IO ---------- *)

(* Write everything; partial writes just continue. *)
let write_all fd s pos len =
  let pos = ref pos and left = ref len in
  while !left > 0 do
    let n = Unix.write_substring fd s !pos !left in
    pos := !pos + n;
    left := !left - n
  done

let send ?(faults = []) ?(nth = 0) fd payload =
  (match Core.Fault.io_delay_write faults ~nth with
  | Some ms -> Unix.sleepf (float_of_int ms /. 1000.0)
  | None -> ());
  let len = String.length payload in
  if len > max_frame_bytes then
    invalid_arg (Printf.sprintf "Transport.send: frame too large (%d bytes)" len);
  let header = Bytes.create header_bytes in
  Bytes.blit_string magic 0 header 0 4;
  put_be32 header 4 len;
  let trailer = Bytes.create 4 in
  put_be32 trailer 0 (Circuit_io.Record.checksum payload);
  if Core.Fault.io_eof_mid_frame faults ~nth then begin
    (* Injected peer death: ship the header and half the payload, then bail
       out.  The caller closes the socket; the receiver must classify the
       truncated frame as malformed, not wait forever. *)
    write_all fd (Bytes.to_string header) 0 header_bytes;
    write_all fd payload 0 (len / 2);
    raise (Core.Fault.Injected (Printf.sprintf "eof-mid-frame at send %d" nth))
  end;
  write_all fd (Bytes.to_string header) 0 header_bytes;
  write_all fd payload 0 len;
  write_all fd (Bytes.to_string trailer) 0 4

(* Read exactly [len] bytes before [deadline] (absolute).  Distinguishes the
   three failure shapes the daemon must react to differently. *)
let read_exact fd buf off len ~deadline ~mid_frame =
  let off = ref off and left = ref len in
  while !left > 0 do
    let remaining = deadline -. Parallel.Clock.now_s () in
    if remaining <= 0.0 then raise Timeout;
    (match Unix.select [ fd ] [] [] remaining with
    | [], _, _ -> raise Timeout
    | _ -> ());
    match Unix.read fd buf !off !left with
    | 0 ->
        if mid_frame () then raise (Malformed "eof mid-frame") else raise Closed
    | n ->
        off := !off + n;
        left := !left - n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let recv ?(faults = []) ?(nth = 0) ?(timeout_s = 30.0) fd =
  let deadline = Parallel.Clock.now_s () +. timeout_s in
  let header = Bytes.create header_bytes in
  let got = ref 0 in
  (* EOF before any header byte is a clean close; EOF after is a torn
     frame. *)
  let read_header () =
    read_exact fd header 0 header_bytes ~deadline ~mid_frame:(fun () -> !got > 0)
  in
  (* track partial header reads for the mid_frame classification *)
  let () =
    try read_header ()
    with Closed when !got > 0 -> raise (Malformed "eof mid-header")
  in
  if Bytes.sub_string header 0 4 <> magic then
    raise (Malformed (Printf.sprintf "bad magic %S" (Bytes.sub_string header 0 4)));
  let len = get_be32 header 4 in
  if len < 0 || len > max_frame_bytes then
    raise (Malformed (Printf.sprintf "frame length %d out of bounds" len));
  let payload = Bytes.create len in
  if Core.Fault.io_short_read faults ~nth then begin
    (* Injected stall: consume part of the payload then behave exactly as a
       timed-out read would — the frame is lost, the connection poisoned. *)
    let part = len / 2 in
    read_exact fd payload 0 part ~deadline ~mid_frame:(fun () -> true);
    raise (Malformed (Printf.sprintf "injected short read at recv %d" nth))
  end;
  read_exact fd payload 0 len ~deadline ~mid_frame:(fun () -> true);
  let trailer = Bytes.create 4 in
  read_exact fd trailer 0 4 ~deadline ~mid_frame:(fun () -> true);
  let body = Bytes.to_string payload in
  if get_be32 trailer 0 <> Circuit_io.Record.checksum body then raise (Malformed "checksum mismatch");
  body
