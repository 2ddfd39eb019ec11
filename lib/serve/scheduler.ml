type job = {
  seq : int;
  session : string;
  priority : int;
  enqueued : float;
  deadline : float;
  budget : float;
  work : unit -> Protocol.response;
}

type ticket = {
  t_mutex : Mutex.t;
  t_cond : Condition.t;
  mutable t_result : Protocol.response option;
}

type entry = { job : job; ticket : ticket }

type t = {
  max_queue : int;
  mutex : Mutex.t;
  cond : Condition.t;  (* queue became nonempty, or stop was requested *)
  mutable queue : entry list;  (* unordered; [max_queue] is small *)
  mutable seq : int;
  mutable stopped : bool;
  running : (int, ticket) Hashtbl.t;  (* seq -> ticket of dequeued jobs *)
}

let create ~max_queue =
  if max_queue < 1 then invalid_arg "Scheduler.create: max_queue < 1";
  {
    max_queue;
    mutex = Mutex.create ();
    cond = Condition.create ();
    queue = [];
    seq = 0;
    stopped = false;
    running = Hashtbl.create 8;
  }

let complete entry resp =
  Mutex.lock entry.ticket.t_mutex;
  entry.ticket.t_result <- Some resp;
  Condition.broadcast entry.ticket.t_cond;
  Mutex.unlock entry.ticket.t_mutex

let shed_error =
  Protocol.Err
    {
      code = Protocol.Shedding;
      detail = "dropped for a higher-priority request";
      retry_after_s = Some 1.0;
    }

let expired_error =
  Protocol.Err
    {
      code = Protocol.Timeout;
      detail = "deadline expired while queued";
      retry_after_s = None;
    }

let drain_error =
  Protocol.Err
    { code = Protocol.Internal; detail = "daemon stopping"; retry_after_s = None }

(* Selection order, smaller = served first. *)
let rank e = (-e.job.priority, e.job.budget, e.job.seq)

let submit t ~session ~priority ~budget ~deadline ~work =
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Scheduler.submit: stopped"
  end;
  let shed =
    if List.length t.queue < t.max_queue then None
    else
      (* Full: the newcomer may displace the worst queued entry, but only
         when it strictly outranks it on priority — equal priority waits its
         turn rather than churning the queue. *)
      let worst =
        List.fold_left
          (fun acc e ->
            match acc with
            | None -> Some e
            | Some w -> if rank e > rank w then Some e else acc)
          None t.queue
      in
      match worst with
      | Some w when priority > w.job.priority -> Some w
      | _ -> None
  in
  match (List.length t.queue < t.max_queue, shed) with
  | false, None ->
      Mutex.unlock t.mutex;
      `Overloaded
  | fits, _ ->
      (match (fits, shed) with
      | false, Some w ->
          t.queue <- List.filter (fun e -> e != w) t.queue;
          complete w shed_error
      | _ -> ());
      let ticket =
        { t_mutex = Mutex.create (); t_cond = Condition.create (); t_result = None }
      in
      t.seq <- t.seq + 1;
      let job =
        { seq = t.seq; session; priority; enqueued = Parallel.Clock.now_s ();
          deadline; budget; work }
      in
      t.queue <- { job; ticket } :: t.queue;
      Condition.signal t.cond;
      Mutex.unlock t.mutex;
      `Queued ticket

let await ticket =
  Mutex.lock ticket.t_mutex;
  while ticket.t_result = None do
    Condition.wait ticket.t_cond ticket.t_mutex
  done;
  let r = Option.get ticket.t_result in
  Mutex.unlock ticket.t_mutex;
  r

let next t =
  Mutex.lock t.mutex;
  let rec loop () =
    (* Expire stale entries first so they never run. *)
    let now = Parallel.Clock.now_s () in
    let expired, live =
      List.partition (fun e -> e.job.deadline < now) t.queue
    in
    t.queue <- live;
    List.iter (fun e -> complete e expired_error) expired;
    match t.queue with
    | [] ->
        if t.stopped then None
        else begin
          Condition.wait t.cond t.mutex;
          loop ()
        end
    | _ :: _ ->
        let best =
          List.fold_left
            (fun acc e ->
              match acc with
              | None -> Some e
              | Some b -> if rank e < rank b then Some e else acc)
            None t.queue
        in
        let e = Option.get best in
        t.queue <- List.filter (fun x -> x != e) t.queue;
        Hashtbl.replace t.running e.job.seq e.ticket;
        Some e.job
  in
  let r = loop () in
  Mutex.unlock t.mutex;
  r

let finish t (job : job) resp =
  Mutex.lock t.mutex;
  let ticket = Hashtbl.find_opt t.running job.seq in
  Hashtbl.remove t.running job.seq;
  Mutex.unlock t.mutex;
  match ticket with
  | Some ticket -> complete { job; ticket } resp
  | None -> ()

let depth t =
  Mutex.lock t.mutex;
  let d = List.length t.queue in
  Mutex.unlock t.mutex;
  d

let max_queue t = t.max_queue

let stop t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  let drained = t.queue in
  t.queue <- [];
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter (fun e -> complete e drain_error) drained
