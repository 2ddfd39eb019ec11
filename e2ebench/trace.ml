(* In-memory span recorder for the traced replay.

   A span is one timed call at a layer boundary: its name, the span that
   caused it, the circuit it belongs to (its scope) and its start/end
   instants.  Spans and counters stay in memory until the run ends; nothing
   is written while the replay runs, so the recorder costs two clock reads
   and one allocation per span. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  scope : string;
  start_ns : int64;
  mutable stop_ns : int64;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable open_ : span list;  (** innermost first *)
  mutable next : int;
  mutable scope : string;
  counts : (string * string, int) Hashtbl.t;  (** (scope, name) *)
}

let create () = { spans = []; open_ = []; next = 0; scope = ""; counts = Hashtbl.create 64 }

(* Spans and counts recorded from now on belong to [scope]. *)
let set_scope t scope = t.scope <- scope

let span t name f =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = t.next;
      parent;
      name;
      scope = t.scope;
      start_ns = Parallel.Clock.now_ns ();
      stop_ns = 0L;
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.open_ <- s :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- Parallel.Clock.now_ns ();
      t.open_ <- List.tl t.open_)
    f

let count t name n =
  let k = (t.scope, name) in
  Hashtbl.replace t.counts k (n + Option.value (Hashtbl.find_opt t.counts k) ~default:0)

let all _ = true

(* Sum of the counter over the scopes [keep] accepts. *)
let counter ?(keep = all) t name =
  Hashtbl.fold (fun (sc, n) v acc -> if n = name && keep sc then acc + v else acc) t.counts 0

let duration s = Parallel.Clock.ns_to_s (Int64.sub s.stop_ns s.start_ns)

(* Self time per span name over the scopes [keep] accepts: each span's
   duration minus the time its direct children cover (children never
   overlap: the replay is sequential). *)
let self_times ?(keep = all) t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    t.spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun (s : span) ->
      if keep s.scope then
        let own = duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
        Hashtbl.replace self s.name
          (own +. Option.value (Hashtbl.find_opt self s.name) ~default:0.0))
    t.spans;
  self

(* Summed duration of the spans called [name] in the scopes [keep] accepts. *)
let total ?(keep = all) t name =
  List.fold_left
    (fun acc (s : span) -> if s.name = name && keep s.scope then acc +. duration s else acc)
    0.0 t.spans
