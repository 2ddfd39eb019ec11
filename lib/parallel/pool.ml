(* Domain-based worker pool with per-worker task deques and work stealing.

   Layout: a pool of [jobs] lanes.  Lane 0 belongs to the submitting
   (caller) domain, lanes 1..jobs-1 each get a spawned worker domain.  Every
   lane owns a deque: the owner pushes and pops at the bottom (LIFO, good
   locality for nested fork/join), thieves steal from the top (FIFO, steals
   the largest pending subtree first).

   Synchronization is deliberately coarse: one mutex + condition variable
   per pool protects every deque, the pending-task signal and future
   completion.  Tasks in this codebase are chunk-sized (a simulation word
   range, a slice of LAC candidates — milliseconds), so a sub-microsecond
   lock is noise, and the single lock makes the no-lost-wakeup argument
   trivial: a waiter only blocks while holding the same lock every producer
   must take to publish work or a result.

   Determinism: the pool executes arbitrary closures in arbitrary order, so
   determinism is a property of the *callers* — see {!Chunk}, which only
   hands the pool tasks whose result placement and reduction order are fixed
   in advance. *)

type stat = {
  worker : int;
  tasks : int;
  steals : int;
  busy_ns : int64;
  idle_ns : int64;
}

type counters = {
  mutable c_tasks : int;
  mutable c_steals : int;
  mutable c_busy : int64;
  mutable c_idle : int64;
}

(* A task runs on the lane it is given, and charges its run to that lane's
   counters itself (see [async]). *)
type task = int -> unit

(* Owner-bottom / thief-top ring-buffer deque.  Indices grow monotonically;
   the element at logical index [i] lives in slot [i land (capacity - 1)].
   All access is under the pool lock. *)
module Deque = struct
  type t = {
    mutable buf : task option array;  (* capacity always a power of two *)
    mutable top : int;  (* steal end: next element to steal *)
    mutable bottom : int;  (* owner end: next free slot *)
  }

  let create () = { buf = Array.make 64 None; top = 0; bottom = 0 }

  let size d = d.bottom - d.top

  let grow d =
    let cap = Array.length d.buf in
    let buf' = Array.make (2 * cap) None in
    for i = d.top to d.bottom - 1 do
      buf'.(i land ((2 * cap) - 1)) <- d.buf.(i land (cap - 1))
    done;
    d.buf <- buf'

  let push_bottom d x =
    if size d = Array.length d.buf then grow d;
    d.buf.(d.bottom land (Array.length d.buf - 1)) <- Some x;
    d.bottom <- d.bottom + 1

  let pop_bottom d =
    if size d = 0 then None
    else begin
      d.bottom <- d.bottom - 1;
      let slot = d.bottom land (Array.length d.buf - 1) in
      let x = d.buf.(slot) in
      d.buf.(slot) <- None;
      x
    end

  let steal_top d =
    if size d = 0 then None
    else begin
      let slot = d.top land (Array.length d.buf - 1) in
      let x = d.buf.(slot) in
      d.buf.(slot) <- None;
      d.top <- d.top + 1;
      x
    end
end

exception Cancelled

type t = {
  id : int;
  jobs : int;
  mutex : Mutex.t;
  cond : Condition.t;
  deques : Deque.t array;
  counters : counters array;
  mutable stop : bool;
  mutable domains : unit Domain.t array;
  (* Cooperative cancellation: consulted immediately before each task body
     runs (i.e. at chunk boundaries for {!Chunk} callers).  A [None] hook —
     the default — costs one field read per task.  The field is a single
     word, so the unsynchronized read in the task closure is tear-free. *)
  mutable should_stop : (unit -> bool) option;
}

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = { mutable st : 'a state }

let next_id = Atomic.make 0

let cpu_count () = Domain.recommended_domain_count ()

(* Which lane the current domain owns in which pool.  A domain that is not a
   member of the pool it is submitting to (the common case: the caller, or a
   worker of an *outer* pool driving an inner one) uses lane 0. *)
let lane_key : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (-1, -1))

let lane_of t =
  let pid, lane = Domain.DLS.get lane_key in
  if pid = t.id && lane < t.jobs then lane else 0

(* Pop own bottom, else sweep the other deques top-first.  Lock held. *)
let take t lane =
  match Deque.pop_bottom t.deques.(lane) with
  | Some _ as r -> r
  | None ->
      let rec scan k =
        if k = t.jobs then None
        else
          let victim = (lane + k) mod t.jobs in
          match Deque.steal_top t.deques.(victim) with
          | Some _ as r ->
              t.counters.(lane).c_steals <- t.counters.(lane).c_steals + 1;
              r
          | None -> scan (k + 1)
      in
      scan 1

(* Run one task outside the lock on [lane].  Expects the lock held on entry
   and re-acquires it before returning. *)
let exec_locked t lane task =
  Mutex.unlock t.mutex;
  task lane;
  Mutex.lock t.mutex

let worker_loop t lane =
  Domain.DLS.set lane_key (t.id, lane);
  Mutex.lock t.mutex;
  let rec loop () =
    if not t.stop then begin
      (match take t lane with
      | Some task -> exec_locked t lane task
      | None ->
          let t0 = Clock.now_ns () in
          Condition.wait t.cond t.mutex;
          let c = t.counters.(lane) in
          c.c_idle <- Int64.add c.c_idle (Int64.sub (Clock.now_ns ()) t0));
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.mutex

let create ~jobs =
  let jobs = if jobs = 0 then cpu_count () else jobs in
  if jobs < 0 then invalid_arg "Pool.create: negative jobs";
  let jobs = min jobs 64 in
  let t =
    {
      id = Atomic.fetch_and_add next_id 1;
      jobs;
      mutex = Mutex.create ();
      cond = Condition.create ();
      deques = Array.init jobs (fun _ -> Deque.create ());
      counters =
        Array.init jobs (fun _ ->
            { c_tasks = 0; c_steals = 0; c_busy = 0L; c_idle = 0L });
      stop = false;
      domains = [||];
      should_stop = None;
    }
  in
  if jobs > 1 then
    t.domains <-
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let size t = t.jobs

let shutdown t =
  if Array.length t.domains > 0 then begin
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let set_should_stop t hook = t.should_stop <- hook

let cancelled t =
  match t.should_stop with
  | None -> false
  | Some f -> ( try f () with _ -> true)

let async t f =
  let fut = { st = Pending } in
  let task lane =
    (* Each task is fully contained: an exception becomes the future's
       value, never a worker death — the pool stays usable after a failed
       task.  A cancelled pool skips the body entirely: a task enqueued
       before the caller abandoned the computation must not keep a worker
       busy, it fails fast with [Cancelled] instead. *)
    let t0 = Clock.now_ns () in
    let r =
      if cancelled t then Failed (Cancelled, Printexc.get_callstack 0)
      else try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    let dt = Int64.sub (Clock.now_ns ()) t0 in
    (* Count the task under the same lock that publishes its result, so a
       caller reading [stats] right after its last [await] sees it. *)
    Mutex.lock t.mutex;
    let c = t.counters.(lane) in
    c.c_tasks <- c.c_tasks + 1;
    c.c_busy <- Int64.add c.c_busy dt;
    fut.st <- r;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  in
  if t.jobs <= 1 then begin
    (* Sequential pool: run eagerly on the caller.  This IS the jobs = 1
       semantics every parallel call site falls back to. *)
    task 0;
    fut
  end
  else begin
    let lane = lane_of t in
    Mutex.lock t.mutex;
    Deque.push_bottom t.deques.(lane) task;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    fut
  end

(* Awaiting helps: while the future is pending the caller executes pool
   tasks itself (its own deque first, then steals), so nested
   submit-and-await from inside a task cannot deadlock — some lane always
   makes progress on the tasks the awaited future depends on. *)
let await t fut =
  let lane = lane_of t in
  Mutex.lock t.mutex;
  let rec loop () =
    match fut.st with
    | Done v ->
        Mutex.unlock t.mutex;
        v
    | Failed (e, bt) ->
        Mutex.unlock t.mutex;
        Printexc.raise_with_backtrace e bt
    | Pending -> (
        match take t lane with
        | Some task ->
            exec_locked t lane task;
            loop ()
        | None ->
            let t0 = Clock.now_ns () in
            Condition.wait t.cond t.mutex;
            let c = t.counters.(lane) in
            c.c_idle <- Int64.add c.c_idle (Int64.sub (Clock.now_ns ()) t0);
            loop ())
  in
  loop ()

let run t f = await t (async t f)

let stats t =
  Mutex.lock t.mutex;
  let s =
    Array.mapi
      (fun i c ->
        {
          worker = i;
          tasks = c.c_tasks;
          steals = c.c_steals;
          busy_ns = c.c_busy;
          idle_ns = c.c_idle;
        })
      t.counters
  in
  Mutex.unlock t.mutex;
  s

let pp_stats ppf stats =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "worker %d: %6d tasks %5d steals  busy %8.3fs  idle %8.3fs"
        s.worker s.tasks s.steals (Clock.ns_to_s s.busy_ns) (Clock.ns_to_s s.idle_ns))
    stats;
  Format.fprintf ppf "@]"

let summary stats =
  let tasks = Array.fold_left (fun a s -> a + s.tasks) 0 stats in
  let steals = Array.fold_left (fun a s -> a + s.steals) 0 stats in
  let busy = Array.fold_left (fun a s -> a +. Clock.ns_to_s s.busy_ns) 0.0 stats in
  Printf.sprintf "%d workers, %d tasks, %d steals, %.3fs busy" (Array.length stats)
    tasks steals busy
