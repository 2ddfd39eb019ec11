module Graph = Aig.Graph
module Record = Circuit_io.Record

type event = {
  iteration : int;
  target : int;
  est_error : float;
  ands_after : int;
  rounds : int;
}

type state = {
  rng_state : int64;
  rounds : int;
  patience : int;
  shrinks_at_floor : int;
  applied : int;
  iteration : int;
  accepts_since_full : int;
  last_error : float;
  guard_rejects : int;
  recovered_exns : int;
  quarantined : int list;
  policy_state : string;
  events : event list;
}

type t = { dir : string }

type resume = {
  config : Config.t;
  original : Graph.t;
  graph : Graph.t;
  state : state option;
  degraded : string option;
}

let manifest_file dir = Filename.concat dir "manifest"
let original_file dir = Filename.concat dir "original.aag"
let checkpoint_file dir = Filename.concat dir "checkpoint"
let checkpoint_prev_file dir = Filename.concat dir "checkpoint.prev"

let dir t = t.dir

(* ---------- Manifest: one (key, print, parse) entry per Config field ---------- *)

let manifest_format = "journal manifest"
let manifest_header = "alsrac-journal 1"
let value key parse v = Record.value ~format:manifest_format key parse v

let field key print parse get set =
  (key, (fun c -> print (get c)), fun c v -> set c (value key parse v))

let int_field key = field key string_of_int int_of_string_opt
let float_field key = field key Record.float_to_string float_of_string_opt
let bool_field key = field key string_of_bool bool_of_string_opt

let resyn_names = Config.[ (No_resyn, "none"); (Light, "light"); (Compress2, "compress2") ]

(* The fault plan is deliberately NOT persisted: injected faults belong to
   one process's run, not to the journal a resumed run continues from. *)
let config_fields =
  let open Config in
  [
    field "metric" Errest.Metrics.kind_to_string Errest.Metrics.kind_of_string
      (fun c -> c.metric) (fun c metric -> { c with metric });
    float_field "threshold" (fun c -> c.threshold) (fun c threshold -> { c with threshold });
    int_field "sim_rounds" (fun c -> c.sim_rounds) (fun c sim_rounds -> { c with sim_rounds });
    int_field "lac_limit" (fun c -> c.lac_limit) (fun c lac_limit -> { c with lac_limit });
    int_field "patience" (fun c -> c.patience) (fun c patience -> { c with patience });
    float_field "scale" (fun c -> c.scale) (fun c scale -> { c with scale });
    int_field "min_rounds" (fun c -> c.min_rounds) (fun c min_rounds -> { c with min_rounds });
    int_field "eval_rounds" (fun c -> c.eval_rounds) (fun c eval_rounds -> { c with eval_rounds });
    int_field "max_tfi_divisors" (fun c -> c.max_tfi_divisors) (fun c max_tfi_divisors ->
        { c with max_tfi_divisors });
    int_field "seed" (fun c -> c.seed) (fun c seed -> { c with seed });
    field "resyn"
      (fun r -> List.assoc r resyn_names)
      (fun v -> List.find_map (fun (r, n) -> if n = v then Some r else None) resyn_names)
      (fun c -> c.resyn) (fun c resyn -> { c with resyn });
    int_field "max_iters" (fun c -> c.max_iters) (fun c max_iters -> { c with max_iters });
    float_field "margin" (fun c -> c.margin) (fun c margin -> { c with margin });
    float_field "max_seconds" (fun c -> c.max_seconds) (fun c max_seconds -> { c with max_seconds });
    field "distr" Errest.Distr.to_string
      (fun v -> Result.to_option (Errest.Distr.of_string v))
      (fun c -> c.distr) (fun c distr -> { c with distr });
    ( "input_probs",
      (fun c ->
        match c.input_probs with
        | None -> "none"
        | Some p -> String.concat "," (List.map Record.float_to_string (Array.to_list p))),
      fun c v ->
        let probs () = String.split_on_char ',' v |> List.map (value "input_probs" float_of_string_opt) in
        { c with input_probs = (if v = "none" then None else Some (Array.of_list (probs ()))) } );
    float_field "max_depth_growth" (fun c -> c.max_depth_growth) (fun c max_depth_growth ->
        { c with max_depth_growth });
    bool_field "use_odc" (fun c -> c.use_odc) (fun c use_odc -> { c with use_odc });
    bool_field "guard" (fun c -> c.guard) (fun c guard -> { c with guard });
    float_field "guard_tol" (fun c -> c.guard_tol) (fun c guard_tol -> { c with guard_tol });
    float_field "confidence" (fun c -> c.confidence) (fun c confidence -> { c with confidence });
    bool_field "certify_exact" (fun c -> c.certify_exact) (fun c certify_exact ->
        { c with certify_exact });
    bool_field "exact_resub" (fun c -> c.exact_resub) (fun c exact_resub -> { c with exact_resub });
    int_field "jobs" (fun c -> c.jobs) (fun c jobs -> { c with jobs });
    ( "policy",
      (fun _ -> "greedy"),
      fun c -> function
        | "greedy" -> c
        | p ->
            failwith
              (Printf.sprintf
                 "%s: run used candidate-selection policy %S, which has been \
                  removed; only greedy runs can be resumed"
                 manifest_format p) );
  ]

let config_of_record r =
  List.fold_left
    (fun c (key, v) ->
      match List.find_opt (fun (k, _, _) -> k = key) config_fields with
      | Some (_, _, parse) -> parse c v
      | None -> Record.fail r "unknown config key %S" key)
    (Config.default ~metric:Errest.Metrics.Er ~threshold:0.0)
    (Record.fields r)

let config_kvs c = List.map (fun (k, print, _) -> (k, print c)) config_fields
let config_to_string c = Record.to_string ~end_marker:false (config_kvs c)

let config_of_string text =
  config_of_record (Record.of_string ~format:manifest_format ~end_marker:false text)

(* ---------- Checkpoint ---------- *)

let checkpoint_format = "journal checkpoint"

(* The loop-state fields in file order; the event lines follow [events],
   each keyed by its iteration. *)
let state_keys =
  [ "rng"; "rounds"; "patience"; "shrinks_at_floor"; "applied"; "iteration";
    "accepts_since_full"; "last_error"; "guard_rejects"; "recovered_exns";
    "quarantined"; "policy_state"; "events" ]

let checkpoint_to_string state graph_text =
  let i = string_of_int and f = Record.float_to_string in
  let values =
    [ Int64.to_string state.rng_state; i state.rounds; i state.patience;
      i state.shrinks_at_floor; i state.applied; i state.iteration;
      i state.accepts_since_full; f state.last_error; i state.guard_rejects;
      i state.recovered_exns; String.concat " " (List.map i state.quarantined);
      ""; i (List.length state.events) ]
  in
  let event (e : event) =
    (i e.iteration, Printf.sprintf "%d %s %d %d" e.target (f e.est_error) e.ands_after e.rounds)
  in
  Record.to_string ~header:"alsrac-checkpoint 1" ~graph:graph_text
    (List.combine state_keys values @ List.map event state.events)

let parse_checkpoint text =
  let r = Record.of_string ~format:checkpoint_format ~header:"alsrac-checkpoint 1" text in
  let nkeys = List.length state_keys in
  let fields = Record.fields r in
  if List.filteri (fun k _ -> k < nkeys) (List.map fst fields) <> state_keys then
    Record.fail r "loop-state fields missing or out of order";
  let int = Record.int r and value key = Record.value ~format:checkpoint_format key in
  let event_lines = List.filteri (fun k _ -> k >= nkeys) fields in
  let nevents = int "events" in
  if nevents <> List.length event_lines then
    Record.fail r "event count %d, but %d event lines" nevents (List.length event_lines);
  let event (it, rest) =
    match String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") with
    | [ tg; err; ands; rds ] ->
        {
          iteration = value "event iteration" int_of_string_opt it;
          target = value "event target" int_of_string_opt tg;
          est_error = value "event est_error" float_of_string_opt err;
          ands_after = value "event ands_after" int_of_string_opt ands;
          rounds = value "event rounds" int_of_string_opt rds;
        }
    | _ -> Record.fail r "bad event line %S" (it ^ " " ^ rest)
  in
  let graph =
    match Record.graph r with
    | Some text -> Circuit_io.Aiger.parse text
    | None -> Record.fail r "no graph section"
  in
  ( {
      rng_state = Record.get r "rng" Int64.of_string_opt;
      rounds = int "rounds";
      patience = int "patience";
      shrinks_at_floor = int "shrinks_at_floor";
      applied = int "applied";
      iteration = int "iteration";
      accepts_since_full = int "accepts_since_full";
      last_error = Record.float r "last_error";
      guard_rejects = int "guard_rejects";
      recovered_exns = int "recovered_exns";
      quarantined =
        Record.string r "quarantined" |> String.split_on_char ' '
        |> List.filter (fun s -> s <> "")
        |> List.map (value "quarantined" int_of_string_opt);
      policy_state = "";
      events = List.map event event_lines;
    },
    graph )

(* ---------- Run directory ---------- *)

let create ~dir ~(config : Config.t) ~original =
  (if not (Sys.file_exists dir) then
     try Sys.mkdir dir 0o755
     with Sys_error msg -> failwith (Printf.sprintf "journal: cannot create %s: %s" dir msg));
  if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "journal: %s is not a directory" dir);
  (* A fresh run must not inherit checkpoints from a previous one — nor the
     [*.tmp.*] staging debris a killed run may have stranded. *)
  Circuit_io.Atomic_file.sweep_debris dir;
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ checkpoint_file dir; checkpoint_prev_file dir ];
  Circuit_io.Atomic_file.write (manifest_file dir)
    (Record.to_string ~header:manifest_header (config_kvs config));
  Circuit_io.Aiger.write_graph (original_file dir) original;
  { dir }

let reopen dir =
  if not (Sys.file_exists dir && Sys.is_directory dir && Sys.file_exists (manifest_file dir))
  then failwith (Printf.sprintf "journal: %s is not a journal directory" dir);
  Circuit_io.Atomic_file.sweep_debris dir;
  { dir }

let record t state graph =
  let contents = checkpoint_to_string state (Circuit_io.Aiger.graph_to_string graph) in
  let cp = checkpoint_file t.dir in
  (* Rotate, then write atomically: at any instant the directory holds at
     least one complete checkpoint (or none at all, right after [create]). *)
  if Sys.file_exists cp then Sys.rename cp (checkpoint_prev_file t.dir);
  Circuit_io.Atomic_file.write cp contents

let load_manifest dir =
  let text =
    try Circuit_io.Atomic_file.read (manifest_file dir)
    with Sys_error msg -> failwith (Printf.sprintf "journal: cannot read manifest: %s" msg)
  in
  config_of_record (Record.of_string ~format:manifest_format ~header:manifest_header text)

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith (Printf.sprintf "journal: %s is not a journal directory" dir);
  (* Same kill-crash debris leak the point stores had: a run killed inside
     [Atomic_file.write] strands the staged temp next to the checkpoint. *)
  Circuit_io.Atomic_file.sweep_debris dir;
  let config = load_manifest dir in
  let original =
    try Circuit_io.Aiger.read (original_file dir)
    with Sys_error msg ->
      failwith (Printf.sprintf "journal: cannot read original circuit: %s" msg)
  in
  let try_checkpoint path =
    if not (Sys.file_exists path) then None
    else
      match parse_checkpoint (Circuit_io.Atomic_file.read path) with
      | state, graph -> Some (Ok (state, graph))
      | exception (Failure msg | Sys_error msg) -> Some (Error msg)
  in
  let primary = try_checkpoint (checkpoint_file dir) in
  let fallback = try_checkpoint (checkpoint_prev_file dir) in
  match (primary, fallback) with
  | Some (Ok (state, graph)), _ ->
      { config; original; graph; state = Some state; degraded = None }
  | Some (Error msg), Some (Ok (state, graph)) ->
      {
        config;
        original;
        graph;
        state = Some state;
        degraded = Some (Printf.sprintf "checkpoint unreadable (%s); resumed from previous checkpoint" msg);
      }
  | None, Some (Ok (state, graph)) ->
      (* The crash hit between rotation and the new write. *)
      {
        config;
        original;
        graph;
        state = Some state;
        degraded = Some "checkpoint missing; resumed from previous checkpoint";
      }
  | Some (Error msg), (Some (Error _) | None) ->
      {
        config;
        original;
        graph = original;
        state = None;
        degraded = Some (Printf.sprintf "all checkpoints unreadable (%s); restarting from the original circuit" msg);
      }
  | None, Some (Error msg) ->
      {
        config;
        original;
        graph = original;
        state = None;
        degraded = Some (Printf.sprintf "all checkpoints unreadable (%s); restarting from the original circuit" msg);
      }
  | None, None -> { config; original; graph = original; state = None; degraded = None }
