(* The line-record codec ([Circuit_io.Record]) and the formats built on
   it: the journal manifest and checkpoint, the explore manifest and point
   files, the serve protocol's request and response frames and the session
   manifest.  Every writer is pinned byte for byte to the bytes these
   formats have always had; random values round-trip with floats compared
   bit for bit; and the loaders reject every truncated prefix and every
   single-byte change inside a graph section. *)

module Journal = Core.Journal
module Protocol = Serve.Protocol
module Store = Explore.Store

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let fresh_dir () =
  let d = Filename.temp_file "alsrac_record" "" ^ ".d" in
  Sys.mkdir d 0o755;
  d

(* Structural equality with every float compared bit for bit. *)
let same a b = Marshal.(to_string a [ No_sharing ] = to_string b [ No_sharing ])

let rejects f text =
  match f text with _ -> false | exception Failure _ -> true

(* ---------- The shared reader and writer ---------- *)

module Record = Circuit_io.Record

let failure_mentions what f =
  match f () with
  | _ -> Alcotest.failf "accepted: %s" what
  | exception Failure msg ->
      check (Printf.sprintf "%s: %S names the format" what msg) true
        (String.starts_with ~prefix:"fmt: " msg)

let read ?header ?end_marker text = Record.of_string ~format:"fmt" ?header ?end_marker text

let test_record_reader () =
  let fields = [ ("a", "1"); ("b", "two words"); ("c", ""); ("a", "again") ] in
  List.iter
    (fun graph_newline ->
      let text = Record.to_string ~header:"hdr 1" ~graph:"g\nbytes" ~graph_newline fields in
      let r = read ~header:"hdr 1" text in
      check "fields in order, duplicates kept" true (Record.fields r = fields);
      check "graph bytes" true (Record.graph r = Some "g\nbytes");
      check "first value wins" true (Record.string r "a" = "1");
      check "end marker optional newline" true
        (Record.fields (read ~header:"hdr 1" (String.sub text 0 (String.length text - 1))) = fields))
    [ false; true ];
  check_str "writer bytes" "hdr 1\nk v w\ngraph 2 15841\nxyend\n"
    (Record.to_string ~header:"hdr 1" ~graph:"xy" [ ("k", "v w") ]);
  check_str "no end marker" "k 1\n" (Record.to_string ~end_marker:false [ ("k", "1") ]);
  check "reads to the end of the text without an end marker" true
    (Record.fields (read ~end_marker:false "k 1\nl 2\n") = [ ("k", "1"); ("l", "2") ]);
  let r = read "i 12\nf 0x1.8p+0\nbad x\nend\n" in
  check "int" true (Record.int r "i" = 12);
  check "float" true (Record.float r "f" = 1.5);
  check "absent optional" true (Record.get_opt r "none" int_of_string_opt = None);
  failure_mentions "missing key" (fun () -> Record.string r "none");
  failure_mentions "bad int" (fun () -> Record.int r "bad");
  failure_mentions "bad optional" (fun () -> Record.get_opt r "bad" float_of_string_opt);
  List.iter
    (fun (what, text) -> failure_mentions what (fun () -> read ~header:"hdr 1" text))
    [
      ("empty text", "");
      ("wrong header", "hdr 2\nend\n");
      ("missing end", "hdr 1\nk v\n");
      ("bytes after end", "hdr 1\nend\nk v\n");
      ("line without a space", "hdr 1\nkv\nend\n");
      ("graph line", "hdr 1\ngraph 2\nxy\nend\n");
      ("negative graph length", "hdr 1\ngraph -1 0\nend\n");
      ("graph past the end", "hdr 1\ngraph 99 0\nxy\nend\n");
      ("checksum mismatch", "hdr 1\ngraph 2 15842\nxy\nend\n");
      ("second graph", "hdr 1\ngraph 2 15841\nxy\ngraph 2 15841\nxy\nend\n");
    ]

let test_float_spelling () =
  check_str "inf" "inf" (Record.float_to_string infinity);
  check_str "-inf" "-inf" (Record.float_to_string neg_infinity);
  check_str "hex" "0x1.8p+0" (Record.float_to_string 1.5);
  List.iter
    (fun f ->
      check (Printf.sprintf "%h reads back" f) true
        (Int64.equal (Int64.bits_of_float f)
           (Int64.bits_of_float (float_of_string (Record.float_to_string f)))))
    [ 0.0; -0.0; Float.min_float; Float.min_float /. 7.0; Float.max_float; 0.1;
      -1e300; infinity; neg_infinity ]

(* The checksum sees every single-byte change: a change by d at distance k
   from the end moves it by d * 131^k mod 2^30, never 0 (131 is odd and
   0 < |d| < 2^30). *)
let test_checksum () =
  let s = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n" in
  let sum = Record.checksum s in
  String.iteri
    (fun i c0 ->
      for c = 0 to 255 do
        if Char.chr c <> c0 then begin
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr c);
          if Record.checksum (Bytes.to_string b) = sum then
            Alcotest.failf "byte %d changed to %d keeps the checksum" i c
        end
      done)
    s

let test_rm_rf_keeps_symlink_targets () =
  let root = fresh_dir () in
  let keep = Filename.concat root "keep" and doomed = Filename.concat root "a/b/c" in
  Circuit_io.Atomic_file.mkdir_p keep;
  Circuit_io.Atomic_file.mkdir_p doomed;
  Circuit_io.Atomic_file.mkdir_p doomed;
  Util.write_file (Filename.concat keep "file") "x";
  Unix.symlink keep (Filename.concat doomed "link");
  Circuit_io.Atomic_file.rm_rf (Filename.concat root "a");
  check "tree removed" false (Sys.file_exists (Filename.concat root "a"));
  check "symlink target kept" true (Sys.file_exists (Filename.concat keep "file"));
  Circuit_io.Atomic_file.rm_rf (Filename.concat root "a")

(* ---------- Pinned bytes ---------- *)

let params =
  {
    Protocol.metric = Errest.Metrics.Nmed;
    threshold = 0.015625;
    seed = 42;
    eval_rounds = 2048;
    max_iters = 17;
  }

let request_pins =
  Protocol.
    [
      (Ping, "alsrac-req 1\nverb ping\nend\n");
      ( Load { session = "s1"; circuit = "mtp8"; graph = None; priority = 3 },
        "alsrac-req 1\nverb load\nsession s1\ncircuit mtp8\npriority 3\nend\n" );
      ( Load
          {
            session = "shipped";
            circuit = "-";
            graph = Some "aag 3 1 0 1 1\n2\n4\n\000raw";
            priority = 0;
          },
        "alsrac-req 1\nverb load\nsession shipped\ncircuit -\npriority 0\n\
         graph 22 468770927\naag 3 1 0 1 1\n2\n4\n\000raw\nend\n" );
      ( Approx { session = "s1"; params; deadline_s = Some 1.5 },
        "alsrac-req 1\nverb approx\nsession s1\nmetric nmed\nthreshold 0x1p-6\n\
         seed 42\neval-rounds 2048\nmax-iters 17\ndeadline 0x1.8p+0\nend\n" );
      ( Approx { session = "s1"; params; deadline_s = None },
        "alsrac-req 1\nverb approx\nsession s1\nmetric nmed\nthreshold 0x1p-6\n\
         seed 42\neval-rounds 2048\nmax-iters 17\nend\n" );
      ( Metrics { session = "s1"; metric = Errest.Metrics.Er },
        "alsrac-req 1\nverb metrics\nsession s1\nmetric er\nend\n" );
      (Cec { session = "s1" }, "alsrac-req 1\nverb cec\nsession s1\nend\n");
      (Get { session = "s1" }, "alsrac-req 1\nverb get\nsession s1\nend\n");
      (Status, "alsrac-req 1\nverb status\nend\n");
      (Evict { session = "s1" }, "alsrac-req 1\nverb evict\nsession s1\nend\n");
      (Shutdown, "alsrac-req 1\nverb shutdown\nend\n");
    ]

let response_pins =
  Protocol.
    [
      ( Ok
          ( [ ("session", "s1"); ("ands", "12"); ("c", "") ],
            Some "aag 1 1 0 1 0\n2\n2\n" ),
        "alsrac-resp 1\nstatus ok\nsession s1\nands 12\nc \n\
         graph 18 57094724\naag 1 1 0 1 0\n2\n2\n\nend\n" );
      ( Err
          {
            code = Overloaded;
            detail = "queue full\nnasty \"detail\"";
            retry_after_s = Some 1.25;
          },
        "alsrac-resp 1\nstatus err\ncode overloaded\n\
         detail queue full\\nnasty \\\"detail\\\"\nretry-after 0x1.4p+0\nend\n" );
    ]

let test_protocol_pins () =
  List.iter
    (fun (req, bytes) ->
      check_str "request bytes" bytes (Protocol.encode_request req);
      check "request decodes" true (same req (Protocol.decode_request bytes)))
    request_pins;
  List.iter
    (fun (resp, bytes) ->
      check_str "response bytes" bytes (Protocol.encode_response resp);
      check "response decodes" true (same resp (Protocol.decode_response bytes)))
    response_pins

let test_session_manifest_pin () =
  let state_dir = fresh_dir () in
  let s =
    Serve.Session.create ~state_dir ~name:"s1" ~circuit:"ctrl"
      ~graph:(Circuits.Epfl_control.ctrl ()) ~priority:2
  in
  s.Serve.Session.budget_s <- 1.5;
  s.Serve.Session.applied_total <- 7;
  Serve.Session.save_manifest s;
  check_str "session manifest bytes"
    "alsrac-session 1\ncircuit ctrl\npriority 2\napplied 7\nbudget 0x1.8p+0\n"
    (Util.read_file (Filename.concat (Filename.concat state_dir "s1") "manifest"));
  let s' = Serve.Session.load_dir ~state_dir ~name:"s1" in
  check "session fields read back" true
    (s'.Serve.Session.circuit = "ctrl"
    && s'.Serve.Session.priority = 2
    && s'.Serve.Session.applied_total = 7
    && Float.equal s'.Serve.Session.budget_s 1.5)

let sample_point =
  {
    Store.index = 3;
    bench = "int2float";
    metric = Errest.Metrics.Mred;
    budget = 0.0019531;
    est_error = 0.00146484375;
    orig_ands = 213;
    ands = 187;
    orig_luts = 52;
    luts = 47;
    orig_lut_depth = 5;
    lut_depth = 4;
    orig_area = 401.5;
    area = 360.25;
    orig_delay = 9.1;
    delay = 8.7;
    applied = 4;
    scored = 1234;
    runtime_s = 0.375;
  }

let sample_point_bytes =
  "point 3\nbench int2float\nmetric mred\nbudget 0x1.fffe5280d6543p-10\n\
   est_error 0x1.8p-10\norig_ands 213\nands 187\norig_luts 52\nluts 47\n\
   orig_lut_depth 5\nlut_depth 4\norig_area 0x1.918p+8\narea 0x1.684p+8\n\
   orig_delay 0x1.2333333333333p+3\ndelay 0x1.1666666666666p+3\napplied 4\n\
   scored 1234\nruntime_s 0x1.8p-2\nend\n"

let points_dir () =
  let dir = fresh_dir () in
  Sys.mkdir (Filename.concat dir "points") 0o755;
  dir

let test_point_pin () =
  let dir = points_dir () in
  Store.record_point ~dir sample_point;
  check_str "point bytes" sample_point_bytes
    (Util.read_file (Store.point_path dir sample_point.Store.index));
  check "point reads back" true
    (same (Some sample_point) (Store.read_point ~dir sample_point.Store.index))

(* A config with every persisted field away from its default, including an
   enumerated distribution, per-PI probabilities and an infinite depth
   bound. *)
let all_fields_config =
  {
    (Core.Config.default ~metric:Errest.Metrics.Maxred ~threshold:0.125) with
    Core.Config.sim_rounds = 48;
    lac_limit = 2;
    patience = 7;
    scale = 0.85;
    min_rounds = 8;
    eval_rounds = 1024;
    max_tfi_divisors = 300;
    seed = 99;
    resyn = Core.Config.Light;
    max_iters = 12;
    margin = 0.5;
    max_seconds = 2.5;
    distr =
      Errest.Distr.enum
        ~rows:[| [| true; false; true |]; [| false; false; true |] |]
        ~weights:[| 0.25; 3.0 |];
    input_probs = Some [| 0.25; 0.5; 0.75 |];
    max_depth_growth = infinity;
    use_odc = true;
    guard = false;
    guard_tol = 1e-6;
    confidence = 0.99;
    certify_exact = true;
    exact_resub = true;
    jobs = 3;
  }

let all_fields_body =
  "metric maxred\nthreshold 0x1p-3\nsim_rounds 48\nlac_limit 2\npatience 7\n\
   scale 0x1.b333333333333p-1\nmin_rounds 8\neval_rounds 1024\n\
   max_tfi_divisors 300\nseed 99\nresyn light\nmax_iters 12\nmargin 0x1p-1\n\
   max_seconds 0x1.4p+1\ndistr enum 101:0x1p-2,001:0x1.8p+1\n\
   input_probs 0x1p-2,0x1p-1,0x1.8p-1\nmax_depth_growth inf\nuse_odc true\n\
   guard false\nguard_tol 0x1.0c6f7a0b5ed8dp-20\n\
   confidence 0x1.fae147ae147aep-1\ncertify_exact true\nexact_resub true\n\
   jobs 3\npolicy greedy\n"

let tiny_graph () = Circuit_io.Aiger.parse "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"

let sample_state =
  {
    Journal.rng_state = -4676534741114219574L;
    rounds = 28;
    patience = 2;
    shrinks_at_floor = 1;
    applied = 3;
    iteration = 9;
    accepts_since_full = 3;
    last_error = 0.015625;
    guard_rejects = 1;
    recovered_exns = 2;
    quarantined = [ 17; 42 ];
    policy_state = "";
    events =
      [
        { Journal.iteration = 9; target = 31; est_error = 0.015625;
          ands_after = 600; rounds = 28 };
        { Journal.iteration = 4; target = 12; est_error = 0.0;
          ands_after = 610; rounds = 32 };
      ];
  }

let empty_state =
  { sample_state with
    Journal.quarantined = []; events = []; last_error = infinity }

let tiny_graph_section =
  "graph 52 174845799\n\
   aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 x0\ni1 x1\no0 y0\nc\naiger\n\
   end\n"

let sample_checkpoint_bytes =
  "alsrac-checkpoint 1\nrng -4676534741114219574\nrounds 28\npatience 2\n\
   shrinks_at_floor 1\napplied 3\niteration 9\naccepts_since_full 3\n\
   last_error 0x1p-6\nguard_rejects 1\nrecovered_exns 2\nquarantined 17 42\n\
   policy_state \nevents 2\n9 31 0x1p-6 600 28\n4 12 0x0p+0 610 32\n"
  ^ tiny_graph_section

let empty_checkpoint_bytes =
  "alsrac-checkpoint 1\nrng -4676534741114219574\nrounds 28\npatience 2\n\
   shrinks_at_floor 1\napplied 3\niteration 9\naccepts_since_full 3\n\
   last_error inf\nguard_rejects 1\nrecovered_exns 2\nquarantined \n\
   policy_state \nevents 0\n"
  ^ tiny_graph_section

let test_journal_pins () =
  check_str "config body" all_fields_body
    (Journal.config_to_string all_fields_config);
  check "config body decodes" true
    (same all_fields_config (Journal.config_of_string all_fields_body));
  let dir = fresh_dir () in
  let j = Journal.create ~dir ~config:all_fields_config ~original:(tiny_graph ()) in
  check_str "manifest bytes"
    ("alsrac-journal 1\n" ^ all_fields_body ^ "end\n")
    (Util.read_file (Filename.concat dir "manifest"));
  List.iter
    (fun (state, bytes) ->
      Journal.record j state (tiny_graph ());
      check_str "checkpoint bytes" bytes
        (Util.read_file (Filename.concat dir "checkpoint"));
      let r = Journal.load dir in
      check "checkpoint decodes" true (same (Some state) r.Journal.state);
      check "manifest decodes" true (same all_fields_config r.Journal.config))
    [ (sample_state, sample_checkpoint_bytes); (empty_state, empty_checkpoint_bytes) ]

(* ---------- Round trips on random values ---------- *)

let pick rng xs = List.nth xs (Logic.Rng.int rng (List.length xs))

let any_int rng =
  match Logic.Rng.int rng 6 with
  | 0 -> max_int
  | 1 -> min_int
  | 2 -> Logic.Rng.int rng 100
  | _ -> Logic.Rng.bits62 rng - (1 lsl 61)

(* Any float but NaN: specials, signed zeros, subnormals and raw bit
   patterns. *)
let any_float rng =
  match Logic.Rng.int rng 8 with
  | 0 -> infinity
  | 1 -> neg_infinity
  | 2 -> -0.0
  | 3 -> Float.min_float /. 3.0
  | 4 -> Logic.Rng.float rng
  | _ ->
      let f = Int64.float_of_bits (Logic.Rng.next64 rng) in
      if Float.is_nan f then 0.5 else f

let any_string rng ~alphabet ~max_len =
  String.init (Logic.Rng.int rng (max_len + 1)) (fun _ ->
      alphabet.[Logic.Rng.int rng (String.length alphabet)])

let token_chars = "abcdefghijklmnopqrstuvwxyz0123456789-_"
let line_chars = token_chars ^ " .,:;=\"\\\t\x01\xff"
let all_bytes = String.init 256 Char.chr

let random_distr rng =
  if Logic.Rng.bool rng then Errest.Distr.Unif
  else
    let npis = 1 + Logic.Rng.int rng 5 and nrows = 1 + Logic.Rng.int rng 4 in
    Errest.Distr.enum
      ~rows:(Array.init nrows (fun _ -> Array.init npis (fun _ -> Logic.Rng.bool rng)))
      ~weights:(Array.init nrows (fun _ -> 0.001 +. (Logic.Rng.float rng *. 1e6)))

let random_config rng =
  let float () = any_float rng and int () = any_int rng and bool () = Logic.Rng.bool rng in
  {
    Core.Config.metric = pick rng Errest.Metrics.all_kinds;
    threshold = float ();
    sim_rounds = int ();
    lac_limit = int ();
    patience = int ();
    scale = float ();
    min_rounds = int ();
    eval_rounds = int ();
    max_tfi_divisors = int ();
    seed = int ();
    resyn = pick rng Core.Config.[ No_resyn; Light; Compress2 ];
    max_iters = int ();
    margin = float ();
    max_seconds = (if bool () then infinity else float ());
    distr = random_distr rng;
    input_probs =
      (if bool () then None
       else Some (Array.init (1 + Logic.Rng.int rng 6) (fun _ -> float ())));
    max_depth_growth = float ();
    use_odc = bool ();
    guard = bool ();
    guard_tol = float ();
    confidence = float ();
    certify_exact = bool ();
    exact_resub = bool ();
    fault = Core.Fault.none;
    jobs = int ();
    policy = Core.Config.Greedy;
  }

let random_state rng =
  let int () = any_int rng in
  {
    Journal.rng_state = Logic.Rng.next64 rng;
    rounds = int ();
    patience = int ();
    shrinks_at_floor = int ();
    applied = int ();
    iteration = int ();
    accepts_since_full = int ();
    last_error = any_float rng;
    guard_rejects = int ();
    recovered_exns = int ();
    quarantined = List.init (Logic.Rng.int rng 5) (fun _ -> int ());
    policy_state = "";
    events =
      List.init (Logic.Rng.int rng 5) (fun _ ->
          {
            Journal.iteration = int ();
            target = int ();
            est_error = any_float rng;
            ands_after = int ();
            rounds = int ();
          });
  }

let random_point rng =
  let int () = any_int rng and float () = any_float rng in
  {
    Store.index = Logic.Rng.int rng 1_000_000;
    bench = any_string rng ~alphabet:line_chars ~max_len:12;
    metric = pick rng Errest.Metrics.all_kinds;
    budget = float ();
    est_error = float ();
    orig_ands = int ();
    ands = int ();
    orig_luts = int ();
    luts = int ();
    orig_lut_depth = int ();
    lut_depth = int ();
    orig_area = float ();
    area = float ();
    orig_delay = float ();
    delay = float ();
    applied = int ();
    scored = int ();
    runtime_s = float ();
  }

let random_session rng =
  let first = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-" in
  String.make 1 first.[Logic.Rng.int rng (String.length first)]
  ^ any_string rng ~alphabet:(first ^ ".") ~max_len:63

let random_request rng =
  let session = random_session rng in
  let metric = pick rng Errest.Metrics.all_kinds in
  match Logic.Rng.int rng 9 with
  | 0 -> Protocol.Ping
  | 1 ->
      Protocol.Load
        {
          session;
          circuit = any_string rng ~alphabet:line_chars ~max_len:20;
          graph =
            (if Logic.Rng.bool rng then None
             else Some (any_string rng ~alphabet:all_bytes ~max_len:200));
          priority = any_int rng;
        }
  | 2 ->
      Protocol.Approx
        {
          session;
          params =
            {
              Protocol.metric;
              threshold = any_float rng;
              seed = any_int rng;
              eval_rounds = any_int rng;
              max_iters = any_int rng;
            };
          deadline_s = (if Logic.Rng.bool rng then None else Some (any_float rng));
        }
  | 3 -> Protocol.Metrics { session; metric }
  | 4 -> Protocol.Cec { session }
  | 5 -> Protocol.Get { session }
  | 6 -> Protocol.Status
  | 7 -> Protocol.Evict { session }
  | _ -> Protocol.Shutdown

let random_response rng =
  if Logic.Rng.bool rng then
    let key () =
      match any_string rng ~alphabet:token_chars ~max_len:10 with
      | "" | "graph" | "status" -> "k"
      | k -> k
    in
    Protocol.Ok
      ( List.init (Logic.Rng.int rng 6) (fun _ ->
            (key (), any_string rng ~alphabet:line_chars ~max_len:30)),
        if Logic.Rng.bool rng then None
        else Some (any_string rng ~alphabet:all_bytes ~max_len:200) )
  else
    Protocol.Err
      {
        code =
          pick rng
            Protocol.[ Timeout; Overloaded; Shedding; No_session; Bad_request; Busy; Internal ];
        detail = any_string rng ~alphabet:all_bytes ~max_len:40;
        retry_after_s = (if Logic.Rng.bool rng then None else Some (any_float rng));
      }

let roundtrip name ~count f =
  QCheck.Test.make ~name ~count
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed -> f (Logic.Rng.create seed))

let prop_config =
  roundtrip "config" ~count:300 (fun rng ->
      let c = random_config rng in
      same c (Journal.config_of_string (Journal.config_to_string c)))

let prop_checkpoint =
  let dir = fresh_dir () in
  let j = Journal.create ~dir ~config:all_fields_config ~original:(tiny_graph ()) in
  roundtrip "checkpoint" ~count:100 (fun rng ->
      let state = random_state rng in
      Journal.record j state (tiny_graph ());
      let r = Journal.load dir in
      r.Journal.degraded = None && same (Some state) r.Journal.state)

let prop_point =
  let dir = points_dir () in
  roundtrip "point" ~count:300 (fun rng ->
      let p = random_point rng in
      Store.record_point ~dir p;
      same (Some p) (Store.read_point ~dir p.Store.index))

let prop_request =
  roundtrip "request" ~count:500 (fun rng ->
      let req = random_request rng in
      same req (Protocol.decode_request (Protocol.encode_request req)))

let prop_response =
  roundtrip "response" ~count:500 (fun rng ->
      let resp = random_response rng in
      same resp (Protocol.decode_response (Protocol.encode_response resp)))

(* ---------- Hostile input ---------- *)

(* Every prefix shorter than [text] minus its final newline. *)
let each_prefix text f =
  for n = 0 to String.length text - 2 do
    f n (String.sub text 0 n)
  done

let check_prefixes_rejected what text reject =
  each_prefix text (fun n prefix ->
      if not (reject prefix) then
        Alcotest.failf "%s: accepted the %d-byte prefix %S" what n prefix)

(* Every single-byte change inside the graph section of [text]: its
   [graph NBYTES CHECKSUM] line and the bytes it announces. *)
let each_graph_byte_change text f =
  let start =
    let rec find i =
      if String.sub text i 7 = "\ngraph " then i + 1 else find (i + 1)
    in
    find 0
  in
  let header_end = String.index_from text start '\n' in
  let nbytes =
    Scanf.sscanf (String.sub text start (header_end - start)) "graph %d %d" (fun n _ -> n)
  in
  for i = start to header_end + nbytes do
    for c = 0 to 255 do
      if Char.chr c <> text.[i] then begin
        let b = Bytes.of_string text in
        Bytes.set b i (Char.chr c);
        f i (Bytes.to_string b)
      end
    done
  done

let check_graph_changes_rejected what text reject =
  each_graph_byte_change text (fun i changed ->
      if not (reject changed) then
        Alcotest.failf "%s: accepted a change at byte %d: %S" what i changed)

let test_hostile_protocol () =
  check "badly escaped detail" true
    (rejects Protocol.decode_response
       "alsrac-resp 1\nstatus err\ncode busy\ndetail bad \\q\nend\n");
  List.iter
    (fun (_, bytes) ->
      check_prefixes_rejected "request" bytes (rejects Protocol.decode_request))
    request_pins;
  List.iter
    (fun (_, bytes) ->
      check_prefixes_rejected "response" bytes (rejects Protocol.decode_response))
    response_pins;
  let with_graph pins =
    List.filter (fun (_, bytes) -> Util.contains bytes "\ngraph ") pins
  in
  List.iter
    (fun (_, bytes) ->
      check_graph_changes_rejected "request" bytes (rejects Protocol.decode_request))
    (with_graph request_pins);
  List.iter
    (fun (_, bytes) ->
      check_graph_changes_rejected "response" bytes (rejects Protocol.decode_response))
    (with_graph response_pins)

let test_hostile_explore () =
  let manifest =
    Store.manifest_to_string
      {
        Store.benchmarks = [ "ctrl"; "int2float" ];
        ladders =
          [ { Explore.Ladder.metric = Errest.Metrics.Er; budgets = [ 0.01; 0.05 ] } ];
        seed = 1;
        eval_rounds = 128;
        max_iters = 3;
        distr = Errest.Distr.Unif;
      }
  in
  check_prefixes_rejected "explore manifest" manifest
    (rejects Store.manifest_of_string);
  let dir = points_dir () in
  let path = Store.point_path dir sample_point.Store.index in
  check_prefixes_rejected "point" sample_point_bytes (fun prefix ->
      Util.write_file path prefix;
      Store.read_point ~dir sample_point.Store.index = None)

(* A journal whose [checkpoint.prev] holds [sample_state]: any damage to
   [checkpoint] must be reported and resumed from the previous one. *)
let test_hostile_journal () =
  let dir = fresh_dir () in
  let j = Journal.create ~dir ~config:all_fields_config ~original:(tiny_graph ()) in
  Journal.record j sample_state (tiny_graph ());
  Journal.record j empty_state (tiny_graph ());
  let checkpoint = Filename.concat dir "checkpoint" in
  let text = Util.read_file checkpoint in
  let falls_back damaged =
    Util.write_file checkpoint damaged;
    let r = Journal.load dir in
    r.Journal.degraded <> None && same (Some sample_state) r.Journal.state
  in
  check_prefixes_rejected "checkpoint" text falls_back;
  check_graph_changes_rejected "checkpoint" text falls_back;
  Util.write_file checkpoint text;
  let manifest = Filename.concat dir "manifest" in
  check_prefixes_rejected "journal manifest" (Util.read_file manifest) (fun prefix ->
      Util.write_file manifest prefix;
      rejects Journal.load dir)

(* ---------- Runner ---------- *)

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "record"
    [
      ( "codec",
        [
          tc "reader and writer" test_record_reader;
          tc "float spelling" test_float_spelling;
          tc "checksum sees every byte change" test_checksum;
          tc "rm -rf never follows a symlink" test_rm_rf_keeps_symlink_targets;
        ] );
      ( "pinned",
        [
          tc "protocol requests and responses" test_protocol_pins;
          tc "session manifest" test_session_manifest_pin;
          tc "explore point" test_point_pin;
          tc "journal manifest and checkpoints" test_journal_pins;
        ] );
      ( "round-trip",
        Util.qcheck_cases
          [ prop_config; prop_checkpoint; prop_point; prop_request; prop_response ] );
      ( "hostile",
        [
          tc "protocol prefixes and graph bytes" test_hostile_protocol;
          tc "explore prefixes" test_hostile_explore;
          tc "journal prefixes and graph bytes" test_hostile_journal;
        ] );
    ]
