module Record = Circuit_io.Record

type t = {
  name : string;
  dir : string;
  circuit : string;
  original : Aig.Graph.t;
  eval_pats : Logic.Bitvec.t array;
  golden : Logic.Bitvec.t array;
  mutable current : Aig.Graph.t;
  mutable revision : int;
  mutable priority : int;
  mutable last_used : float;
  mutable budget_s : float;
  mutable applied_total : int;
  mutable busy : bool;
  mutable metric_cache : (Errest.Metrics.kind * int * float) list;
}

let eval_rounds = 4096
let eval_seed = 7

let ( // ) = Filename.concat

(* Evaluation sample: exhaustive when that is at most [eval_rounds]
   patterns, Monte-Carlo otherwise — the resident analogue of
   [Errest.Metrics.evaluate]. *)
let make_eval_pats g =
  let npis = Aig.Graph.num_pis g in
  if Sim.Patterns.fits_exhaustive ~npis ~rounds:eval_rounds then
    Sim.Patterns.exhaustive ~npis
  else Sim.Patterns.random (Logic.Rng.create eval_seed) ~npis ~len:eval_rounds

let manifest_path dir = dir // "manifest"
let original_path dir = dir // "original.aag"
let current_path dir = dir // "current.aag"
let inflight_path dir = dir // "inflight"
let journal_dir t = t.dir // "journal"

let manifest_header = "alsrac-session 1"
let manifest_keys = [ "circuit"; "priority"; "applied"; "budget" ]

let save_manifest t =
  Circuit_io.Atomic_file.write (manifest_path t.dir)
    (Record.to_string ~header:manifest_header ~end_marker:false
       (List.combine manifest_keys
          [ t.circuit; string_of_int t.priority; string_of_int t.applied_total;
            Record.float_to_string t.budget_s ]))

let warm ~name ~dir ~circuit ~original ~current ~priority ~budget_s
    ~applied_total =
  let eval_pats = make_eval_pats original in
  {
    name;
    dir;
    circuit;
    original;
    eval_pats;
    golden = Sim.Engine.simulate_pos original eval_pats;
    current;
    revision = 0;
    priority;
    last_used = Parallel.Clock.now_s ();
    budget_s;
    applied_total;
    busy = false;
    metric_cache = [];
  }

let create ~state_dir ~name ~circuit ~graph ~priority =
  let dir = state_dir // name in
  Circuit_io.Atomic_file.rm_rf dir;
  Circuit_io.Atomic_file.mkdir_p dir;
  Circuit_io.Atomic_file.write (original_path dir)
    (Circuit_io.Aiger.graph_to_string graph);
  let t =
    (* [current] starts as a cheap blit-level clone so no later in-place
       mutation of the working graph can reach the pristine [original] the
       golden signatures were built from. *)
    warm ~name ~dir ~circuit ~original:graph ~current:(Aig.Graph.clone graph)
      ~priority ~budget_s:0.0 ~applied_total:0
  in
  save_manifest t;
  t

let parse_manifest path =
  let r =
    Record.of_string ~format:"session manifest" ~header:manifest_header ~end_marker:false
      (Circuit_io.Atomic_file.read path)
  in
  List.iter
    (fun (k, _) -> if not (List.mem k manifest_keys) then Record.fail r "unknown key %S" k)
    (Record.fields r);
  (Record.string r "circuit", Record.int r "priority", Record.int r "applied",
   Record.float r "budget")

let load_dir ~state_dir ~name =
  let dir = state_dir // name in
  (* A daemon killed inside [Atomic_file.write] (manifest, current.aag,
     inflight, or a flow checkpoint in journal/) strands its staged temp;
     sweep both levels before trusting the directory's contents. *)
  Circuit_io.Atomic_file.sweep_debris dir;
  Circuit_io.Atomic_file.sweep_debris (dir // "journal");
  let circuit, priority, applied_total, budget_s =
    try parse_manifest (manifest_path dir)
    with Sys_error _ | Failure _ ->
      failwith (Printf.sprintf "session: %s is not a usable session" dir)
  in
  let original =
    try Circuit_io.Aiger.read (original_path dir)
    with _ -> failwith (Printf.sprintf "session: %s: unreadable original" dir)
  in
  let current =
    if Sys.file_exists (current_path dir) then
      try Circuit_io.Aiger.read (current_path dir) with _ -> original
    else original
  in
  warm ~name ~dir ~circuit ~original ~current ~priority ~budget_s
    ~applied_total

let scan ~state_dir =
  if not (Sys.file_exists state_dir) then []
  else
    Sys.readdir state_dir |> Array.to_list
    |> List.filter (fun name ->
           Protocol.valid_session_name name
           && Sys.file_exists (manifest_path (state_dir // name)))
    |> List.sort compare

let set_current t g =
  t.current <- g;
  t.revision <- t.revision + 1;
  t.metric_cache <- [];
  Circuit_io.Atomic_file.write (current_path t.dir)
    (Circuit_io.Aiger.graph_to_string g);
  save_manifest t

let rollback_to_snapshot t =
  let snapshot =
    match Core.Journal.load (journal_dir t) with
    | resume -> resume.Core.Journal.graph
    | exception Failure _ ->
        (* Clone rather than alias: [current] must never share node arrays
           with the pristine [original]. *)
        Aig.Graph.clone t.original
  in
  set_current t snapshot

let record_inflight t req =
  Circuit_io.Atomic_file.write (inflight_path t.dir)
    (Protocol.encode_request req)

let clear_inflight t =
  try Unix.unlink (inflight_path t.dir)
  with Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let inflight t =
  let path = inflight_path t.dir in
  if not (Sys.file_exists path) then None
  else
    match Protocol.decode_request (Circuit_io.Atomic_file.read path) with
    | req -> Some req
    | exception Failure _ ->
        (* A corrupt marker is quarantined, not retried: replaying garbage
           would wedge startup forever. *)
        (try Unix.rename path (path ^ ".bad") with _ -> ());
        None

let metric t kind =
  match
    List.find_opt (fun (k, r, _) -> k = kind && r = t.revision) t.metric_cache
  with
  | Some (_, _, v) -> v
  | None ->
      let approx = Sim.Engine.simulate_pos t.current t.eval_pats in
      let v = Errest.Metrics.measure kind ~golden:t.golden ~approx in
      t.metric_cache <- (kind, t.revision, v) :: t.metric_cache;
      v

let touch t = t.last_used <- Parallel.Clock.now_s ()

let resident_bytes t =
  let graph g = 24 * Aig.Graph.num_nodes g in
  let sigs =
    let rounds = ref 0 in
    if Array.length t.eval_pats > 0 then
      rounds := Logic.Bitvec.length t.eval_pats.(0);
    8 * ((!rounds / 62) + 1) * (Array.length t.eval_pats + Array.length t.golden)
  in
  graph t.original + graph t.current + sigs

let info t =
  [
    ("circuit", t.circuit);
    ("input-ands", string_of_int (Aig.Graph.num_ands t.original));
    ("current-ands", string_of_int (Aig.Graph.num_ands t.current));
    ("revision", string_of_int t.revision);
    ("applied", string_of_int t.applied_total);
    ("priority", string_of_int t.priority);
    ("budget-s", Printf.sprintf "%.3f" t.budget_s);
    ("resident-bytes", string_of_int (resident_bytes t));
    ("busy", string_of_bool t.busy);
  ]

let destroy t = Circuit_io.Atomic_file.rm_rf t.dir
