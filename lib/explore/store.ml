type manifest = {
  benchmarks : string list;
  ladders : Ladder.t list;
  seed : int;
  eval_rounds : int;
  max_iters : int;
  distr : Errest.Distr.t;
}

type result = {
  index : int;
  bench : string;
  metric : Errest.Metrics.kind;
  budget : float;
  est_error : float;
  orig_ands : int;
  ands : int;
  orig_luts : int;
  luts : int;
  orig_lut_depth : int;
  lut_depth : int;
  orig_area : float;
  area : float;
  orig_delay : float;
  delay : float;
  applied : int;
  scored : int;
  runtime_s : float;
}

let format_line = "alsrac-explore 1"

(* ---------- kv plumbing (same shape as the flow journal) ---------- *)

let kv_to_string kvs =
  let buf = Buffer.create 256 in
  List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s %s\n" k v)) kvs;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let kv_of_string ~what text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  match List.rev lines with
  | "end" :: rev_body ->
      List.rev_map
        (fun line ->
          match String.index_opt line ' ' with
          | Some i ->
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) )
          | None -> failwith (Printf.sprintf "%s: bad line %S" what line))
        rev_body
  | _ -> failwith (Printf.sprintf "%s: missing end marker" what)

let field ~what kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing field %s" what k)

let int_field ~what kvs k =
  match int_of_string_opt (field ~what kvs k) with
  | Some i -> i
  | None -> failwith (Printf.sprintf "%s: bad int field %s" what k)

let float_field ~what kvs k =
  match float_of_string_opt (field ~what kvs k) with
  | Some f -> f
  | None -> failwith (Printf.sprintf "%s: bad float field %s" what k)

(* ---------- manifest ---------- *)

let manifest_to_string m =
  format_line ^ "\n"
  ^ kv_to_string
      [
        ("benchmarks", String.concat "," m.benchmarks);
        ("ladder", Ladder.to_spec m.ladders);
        ("policy", "greedy");
        ("seed", string_of_int m.seed);
        ("eval_rounds", string_of_int m.eval_rounds);
        ("max_iters", string_of_int m.max_iters);
        ("distr", Errest.Distr.to_string m.distr);
      ]

let manifest_of_string text =
  let what = "explore manifest" in
  match String.index_opt text '\n' with
  | Some i when String.sub text 0 i = format_line ->
      let kvs =
        kv_of_string ~what (String.sub text (i + 1) (String.length text - i - 1))
      in
      let ladders =
        match Ladder.parse (field ~what kvs "ladder") with
        | Ok ls -> ls
        | Error e -> failwith (Printf.sprintf "%s: %s" what e)
      in
      (match field ~what kvs "policy" with
      | "greedy" -> ()
      | p ->
          failwith
            (Printf.sprintf
               "%s: sweep used candidate-selection policy %S, which has been \
                removed; only greedy sweeps can be resumed"
               what p));
      {
        benchmarks = String.split_on_char ',' (field ~what kvs "benchmarks");
        ladders;
        seed = int_field ~what kvs "seed";
        eval_rounds = int_field ~what kvs "eval_rounds";
        max_iters = int_field ~what kvs "max_iters";
        distr =
          (* Manifests written before the distribution axis existed carry
             no [distr] key: those sweeps were uniform. *)
          (match List.assoc_opt "distr" kvs with
          | None -> Errest.Distr.Unif
          | Some v -> (
              match Errest.Distr.of_string v with
              | Ok d -> d
              | Error e -> failwith (Printf.sprintf "%s: bad distr: %s" what e)));
      }
  | _ -> failwith (Printf.sprintf "%s: not an %s file" what format_line)

let manifest_path dir = Filename.concat dir "manifest"
let points_dir dir = Filename.concat dir "points"
let fronts_dir dir = Filename.concat dir "fronts"

let ensure_dir d =
  if not (Sys.file_exists d) then
    try Sys.mkdir d 0o755
    with Sys_error _ when Sys.file_exists d -> () (* racing shard won *)

(* [Atomic_file.write] stages its temporary file next to the target, so a
   process killed mid-write strands a [*.tmp.*] file in the sweep
   directory.  Completed-point lookup goes by exact path and never sees
   the debris, but directory listings do — sweep it on (re)start.  A
   shard launched while another is mid-write could in principle remove
   the peer's sub-millisecond-old temp file; the peer's rename then
   fails loudly and the sweep stays resumable, so the race degrades to a
   retry, never to corruption. *)
let remove_debris = Circuit_io.Atomic_file.sweep_debris

let load_manifest dir =
  let path = manifest_path dir in
  if Sys.file_exists path then Some (manifest_of_string (Circuit_io.Atomic_file.read path))
  else None

let init ~dir m =
  ensure_dir dir;
  ensure_dir (points_dir dir);
  ensure_dir (fronts_dir dir);
  remove_debris dir;
  remove_debris (points_dir dir);
  remove_debris (fronts_dir dir);
  match load_manifest dir with
  | Some existing -> existing
  | None ->
      Circuit_io.Atomic_file.write (manifest_path dir) (manifest_to_string m);
      m

(* ---------- points ---------- *)

let point_path dir index =
  Filename.concat (points_dir dir) (Printf.sprintf "point-%06d" index)

let result_to_string r =
  kv_to_string
    [
      ("point", string_of_int r.index);
      ("bench", r.bench);
      ("metric", Errest.Metrics.kind_to_string r.metric);
      ("budget", Printf.sprintf "%h" r.budget);
      ("est_error", Printf.sprintf "%h" r.est_error);
      ("orig_ands", string_of_int r.orig_ands);
      ("ands", string_of_int r.ands);
      ("orig_luts", string_of_int r.orig_luts);
      ("luts", string_of_int r.luts);
      ("orig_lut_depth", string_of_int r.orig_lut_depth);
      ("lut_depth", string_of_int r.lut_depth);
      ("orig_area", Printf.sprintf "%h" r.orig_area);
      ("area", Printf.sprintf "%h" r.area);
      ("orig_delay", Printf.sprintf "%h" r.orig_delay);
      ("delay", Printf.sprintf "%h" r.delay);
      ("applied", string_of_int r.applied);
      ("scored", string_of_int r.scored);
      ("runtime_s", Printf.sprintf "%h" r.runtime_s);
    ]

let result_of_string text =
  let what = "explore point" in
  let kvs = kv_of_string ~what text in
  let metric =
    let m = field ~what kvs "metric" in
    match Errest.Metrics.kind_of_string m with
    | Some k -> k
    | None -> failwith (Printf.sprintf "%s: unknown metric %S" what m)
  in
  {
    index = int_field ~what kvs "point";
    bench = field ~what kvs "bench";
    metric;
    budget = float_field ~what kvs "budget";
    est_error = float_field ~what kvs "est_error";
    orig_ands = int_field ~what kvs "orig_ands";
    ands = int_field ~what kvs "ands";
    orig_luts = int_field ~what kvs "orig_luts";
    luts = int_field ~what kvs "luts";
    orig_lut_depth = int_field ~what kvs "orig_lut_depth";
    lut_depth = int_field ~what kvs "lut_depth";
    orig_area = float_field ~what kvs "orig_area";
    area = float_field ~what kvs "area";
    orig_delay = float_field ~what kvs "orig_delay";
    delay = float_field ~what kvs "delay";
    applied = int_field ~what kvs "applied";
    scored = int_field ~what kvs "scored";
    runtime_s = float_field ~what kvs "runtime_s";
  }

let record_point ~dir r =
  Circuit_io.Atomic_file.write (point_path dir r.index) (result_to_string r)

let read_point ~dir index =
  let path = point_path dir index in
  if not (Sys.file_exists path) then None
  else
    try
      let r = result_of_string (Circuit_io.Atomic_file.read path) in
      if r.index = index then Some r else None
    with Failure _ | Sys_error _ -> None

let completed ~dir ~total = Array.init total (fun i -> read_point ~dir i)

(* ---------- fronts ---------- *)

let front_sections = [ "lut-area"; "lut-depth"; "cell-area"; "cell-delay" ]

let tag_of_budget b = Printf.sprintf "b%h" b

let fronts_of_results ~bench ~metric results =
  let mine = List.filter (fun r -> r.bench = bench && r.metric = metric) results in
  let front cost =
    Front.of_points
      (List.map
         (fun r ->
           { Front.err = r.est_error; cost = cost r; tag = tag_of_budget r.budget })
         mine)
  in
  [
    ("lut-area", front (fun r -> float_of_int r.luts));
    ("lut-depth", front (fun r -> float_of_int r.lut_depth));
    ("cell-area", front (fun r -> r.area));
    ("cell-delay", front (fun r -> r.delay));
  ]

let front_path dir ~bench ~metric =
  Filename.concat (fronts_dir dir)
    (Printf.sprintf "%s.%s.front" bench (Errest.Metrics.kind_to_string metric))

let corpus_front_path dir ~metric =
  Filename.concat (fronts_dir dir)
    (Printf.sprintf "corpus.%s.front" (Errest.Metrics.kind_to_string metric))

let front_file_to_string ~name ~metric sections =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "front %s %s\n" name (Errest.Metrics.kind_to_string metric));
  List.iter
    (fun (section, front) ->
      Buffer.add_string buf (Printf.sprintf "section %s\n" section);
      Buffer.add_string buf (Front.to_string front))
    sections;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* The corpus front aggregates across benchmarks, so it only admits
   budgets at which EVERY benchmark of the manifest has completed —
   otherwise an in-flight sweep's corpus numbers would depend on
   completion order.  Mean of AND ratios in manifest benchmark order
   (ordered float summation: reproducible). *)
let corpus_front m ~metric results =
  let budgets =
    match List.find_opt (fun (l : Ladder.t) -> l.metric = metric) m.ladders with
    | Some l -> l.budgets
    | None -> []
  in
  let points =
    List.filter_map
      (fun budget ->
        let per_bench =
          List.map
            (fun bench ->
              List.find_opt
                (fun r ->
                  r.bench = bench && r.metric = metric && Float.equal r.budget budget)
                results)
            m.benchmarks
        in
        if List.exists Option.is_none per_bench then None
        else
          let ratios =
            List.map
              (fun r ->
                let r = Option.get r in
                float_of_int r.ands /. float_of_int (max 1 r.orig_ands))
              per_bench
          in
          let mean =
            List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
          in
          Some { Front.err = budget; cost = mean; tag = tag_of_budget budget })
      budgets
  in
  Front.of_points points

let write_fronts ~dir m results =
  List.iter
    (fun (l : Ladder.t) ->
      let metric = l.metric in
      List.iter
        (fun bench ->
          let sections = fronts_of_results ~bench ~metric results in
          Circuit_io.Atomic_file.write
            (front_path dir ~bench ~metric)
            (front_file_to_string ~name:bench ~metric sections))
        m.benchmarks;
      Circuit_io.Atomic_file.write
        (corpus_front_path dir ~metric)
        (front_file_to_string ~name:"corpus" ~metric
           [ ("and-ratio", corpus_front m ~metric results) ]))
    m.ladders
