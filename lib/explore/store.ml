module Record = Circuit_io.Record

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

(* ---------- manifest ---------- *)

let manifest_to_string m =
  Record.to_string ~header:format_line
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
  let r = Record.of_string ~format:"explore manifest" ~header:format_line text in
  (match Record.string r "policy" with
  | "greedy" -> ()
  | p ->
      Record.fail r
        "sweep used candidate-selection policy %S, which has been removed; \
         only greedy sweeps can be resumed"
        p);
  {
    benchmarks = String.split_on_char ',' (Record.string r "benchmarks");
    ladders = Record.get r "ladder" (fun v -> Result.to_option (Ladder.parse v));
    seed = Record.int r "seed";
    eval_rounds = Record.int r "eval_rounds";
    max_iters = Record.int r "max_iters";
    distr =
      (* Manifests written before the distribution axis existed carry no
         [distr] key: those sweeps were uniform. *)
      Record.get_opt r "distr" (fun v -> Result.to_option (Errest.Distr.of_string v))
      |> Option.value ~default:Errest.Distr.Unif;
  }

let manifest_path dir = Filename.concat dir "manifest"
let points_dir dir = Filename.concat dir "points"
let fronts_dir dir = Filename.concat dir "fronts"

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
  Circuit_io.Atomic_file.mkdir_p (points_dir dir);
  Circuit_io.Atomic_file.mkdir_p (fronts_dir dir);
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
  let i = string_of_int and f = Record.float_to_string in
  Record.to_string
    [
      ("point", i r.index);
      ("bench", r.bench);
      ("metric", Errest.Metrics.kind_to_string r.metric);
      ("budget", f r.budget);
      ("est_error", f r.est_error);
      ("orig_ands", i r.orig_ands);
      ("ands", i r.ands);
      ("orig_luts", i r.orig_luts);
      ("luts", i r.luts);
      ("orig_lut_depth", i r.orig_lut_depth);
      ("lut_depth", i r.lut_depth);
      ("orig_area", f r.orig_area);
      ("area", f r.area);
      ("orig_delay", f r.orig_delay);
      ("delay", f r.delay);
      ("applied", i r.applied);
      ("scored", i r.scored);
      ("runtime_s", f r.runtime_s);
    ]

let result_of_string text =
  let r = Record.of_string ~format:"explore point" text in
  let int = Record.int r and float = Record.float r in
  {
    index = int "point";
    bench = Record.string r "bench";
    metric = Record.get r "metric" Errest.Metrics.kind_of_string;
    budget = float "budget";
    est_error = float "est_error";
    orig_ands = int "orig_ands";
    ands = int "ands";
    orig_luts = int "orig_luts";
    luts = int "luts";
    orig_lut_depth = int "orig_lut_depth";
    lut_depth = int "lut_depth";
    orig_area = float "orig_area";
    area = float "area";
    orig_delay = float "orig_delay";
    delay = float "delay";
    applied = int "applied";
    scored = int "scored";
    runtime_s = float "runtime_s";
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
