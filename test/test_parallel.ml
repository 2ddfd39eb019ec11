(* lib/parallel: pool stress plus the determinism contract at every
   parallel call site — sharded simulation, batch candidate scoring, LAC
   generation, the end-to-end flow, and kill-and-resume across different
   pool sizes.

   ALSRAC_TEST_JOBS=<n> sets the parallel pool size checked against the
   sequential reference (default 4).  Every check asserts bit-identity, so
   the suite is meaningful — and must pass — even on a single-core host,
   where the pool still runs all its machinery. *)

module Graph = Aig.Graph
module Pool = Parallel.Pool
module Chunk = Parallel.Chunk

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_jobs = Util.test_jobs

(* ---------- Pool stress ---------- *)

let test_pool_basics () =
  Pool.with_pool ~jobs:test_jobs (fun p ->
      check_int "size" test_jobs (Pool.size p);
      let fs = List.init 100 (fun i -> Pool.async p (fun () -> i * i)) in
      let sum = List.fold_left (fun acc f -> acc + Pool.await p f) 0 fs in
      check_int "sum of squares" 328350 sum)

let test_pool_detect_cores () =
  Pool.with_pool ~jobs:0 (fun p ->
      check "jobs=0 detects at least one lane" true (Pool.size p >= 1))

let test_pool_sequential_eager () =
  (* jobs=1 must run tasks eagerly on the caller: side effects are visible
     immediately after [async], which is what makes it exactly the
     sequential semantics. *)
  Pool.with_pool ~jobs:1 (fun p ->
      let hit = ref false in
      let f = Pool.async p (fun () -> hit := true) in
      check "eager at jobs=1" true !hit;
      Pool.await p f)

let test_pool_cancellation () =
  Pool.with_pool ~jobs:test_jobs (fun p ->
      (* Once the hook fires, queued-but-unstarted tasks fail with
         [Cancelled] instead of running. *)
      let stop = Atomic.make false in
      Pool.set_should_stop p (Some (fun () -> Atomic.get stop));
      let ran = Atomic.make 0 in
      Atomic.set stop true;
      let fs = List.init 50 (fun _ -> Pool.async p (fun () -> Atomic.incr ran)) in
      let cancelled_count =
        List.fold_left
          (fun acc f ->
            match Pool.await p f with
            | () -> acc
            | exception Pool.Cancelled -> acc + 1)
          0 fs
      in
      check_int "every queued task cancelled" 50 cancelled_count;
      check_int "no task body ran" 0 (Atomic.get ran);
      (* Clearing the hook restores normal service: the pool is reusable. *)
      Pool.set_should_stop p None;
      check_int "pool usable after cancellation" 42 (Pool.run p (fun () -> 42)))

let test_chunk_cancellation () =
  (* Chunk computations abort at a chunk boundary on both the parallel path
     and the sequential fallback. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let done_chunks = Atomic.make 0 in
          let stop = Atomic.make false in
          Pool.set_should_stop p (Some (fun () -> Atomic.get stop));
          (match
             Chunk.map ~pool:p ~chunk_size:1 ~n:64 (fun i ->
                 if Atomic.get stop then ()
                 else if i >= 4 then Atomic.set stop true
                 else ();
                 Atomic.incr done_chunks)
           with
          | _ -> Alcotest.failf "jobs=%d: expected Cancelled" jobs
          | exception Pool.Cancelled -> ());
          check "some chunks ran before the stop" true (Atomic.get done_chunks > 0);
          check "not every chunk ran" true (Atomic.get done_chunks < 64);
          Pool.set_should_stop p None;
          let full = Chunk.map ~pool:p ~n:8 (fun i -> i) in
          check_int "chunk path usable after cancellation" 8 (Array.length full)))
    [ 1; test_jobs ]

let test_pool_nested_submit () =
  Pool.with_pool ~jobs:test_jobs (fun p ->
      (* Tasks submit and await sub-tasks on the same pool: [await] must
         help execute queued work, or this deadlocks once every lane blocks
         on a future whose task nobody is left to run. *)
      let total =
        Pool.run p (fun () ->
            let subs =
              List.init 20 (fun i ->
                  Pool.async p (fun () -> Pool.run p (fun () -> i + 1)))
            in
            List.fold_left (fun acc f -> acc + Pool.await p f) 0 subs)
      in
      check_int "nested sum" 210 total)

exception Boom of int

let test_pool_exception_propagation () =
  Pool.with_pool ~jobs:test_jobs (fun p ->
      let ok = Pool.async p (fun () -> 1) in
      let bad = Pool.async p (fun () -> raise (Boom 42)) in
      (match Pool.await p bad with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 42 -> ());
      check_int "unrelated task unaffected" 1 (Pool.await p ok);
      (* A failed task must not kill a worker: the pool stays usable. *)
      check_int "pool reusable after failure" 99 (Pool.run p (fun () -> 99));
      let fs = List.init 32 (fun i -> Pool.async p (fun () -> 2 * i)) in
      check_int "fan-out after failure" 992
        (List.fold_left (fun acc f -> acc + Pool.await p f) 0 fs))

let test_pool_stats () =
  (* Many trials: a task counted only after its result is published is
     missed by a [stats] read right after the last [await], but only when
     a worker loses the race, so one trial rarely shows it. *)
  Pool.with_pool ~jobs:test_jobs (fun p ->
      let total st = Array.fold_left (fun acc s -> acc + s.Pool.tasks) 0 st in
      for _ = 1 to 2000 do
        let before = total (Pool.stats p) in
        let fs = List.init 64 (fun i -> Pool.async p (fun () -> i)) in
        List.iter (fun f -> ignore (Pool.await p f)) fs;
        let st = Pool.stats p in
        check_int "one stat per lane" (Pool.size p) (Array.length st);
        check_int "every task executed exactly once" 64 (total st - before)
      done)

(* ---------- Chunk determinism contract ---------- *)

let test_chunk_ranges () =
  List.iter
    (fun n ->
      let r = Chunk.ranges n in
      let pos = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          check_int "contiguous" !pos lo;
          check "non-empty chunk" true (hi > lo);
          pos := hi)
        r;
      check_int "covers 0..n-1" n !pos;
      check "bounded chunk count" true
        (Array.length r <= Chunk.default_max_chunks))
    [ 1; 2; 63; 64; 65; 1000; 4097 ];
  check_int "n=0 yields no chunks" 0 (Array.length (Chunk.ranges 0));
  check_int "explicit chunk_size" 10 (Array.length (Chunk.ranges ~chunk_size:1 10))

let test_chunk_float_determinism () =
  (* Float addition is non-associative, so identical sums across pool sizes
     prove the boundaries are fixed: each chunk's partial sum lands at its
     [lo], and the partials are folded in [Chunk.ranges] order. *)
  let n = 10_000 in
  let sum pool =
    let partial = Array.make n 0.0 in
    Chunk.iter ?pool ~chunk_size:7 ~n (fun lo hi ->
        let s = ref 0.0 in
        for i = lo to hi - 1 do
          s := !s +. (sin (float_of_int i) *. 1e3)
        done;
        partial.(lo) <- !s);
    Array.fold_left (fun acc (lo, _) -> acc +. partial.(lo)) 0.0 (Chunk.ranges ~chunk_size:7 n)
  in
  let reference = sum None in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          check
            (Printf.sprintf "float sum bit-identical at jobs=%d" jobs)
            true
            (Float.equal (sum (Some p)) reference)))
    [ 1; 2; test_jobs ]

let test_chunk_map_order () =
  Pool.with_pool ~jobs:test_jobs (fun p ->
      let a = Chunk.map ~pool:p ~chunk_size:3 ~n:100 (fun i -> i * i) in
      check "map slots match indices" true
        (Array.for_all Fun.id (Array.mapi (fun i v -> v = i * i) a)))

(* ---------- Determinism of the parallel call sites ---------- *)

let bitvec_arrays_equal a b =
  Array.length a = Array.length b && Array.for_all2 Logic.Bitvec.equal a b

let test_engine_determinism () =
  (* Word-sharded simulation over the ISCAS-class suite circuits. *)
  List.iter
    (fun (e : Circuits.Suite.entry) ->
      let g = e.Circuits.Suite.build () in
      let pats =
        Sim.Patterns.random (Logic.Rng.create 11) ~npis:(Graph.num_pis g)
          ~len:2048
      in
      let reference = Sim.Engine.simulate g pats in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let s = Sim.Engine.simulate ~pool g pats in
              check
                (Printf.sprintf "%s signatures identical at jobs=%d"
                   e.Circuits.Suite.name jobs)
                true
                (bitvec_arrays_equal s reference)))
        [ 1; 2; test_jobs ])
    (Circuits.Suite.of_klass Circuits.Suite.Iscas_arith)

let test_batch_determinism () =
  let g = Circuits.Multipliers.array_mult ~width:8 in
  let pats =
    Sim.Patterns.random (Logic.Rng.create 5) ~npis:(Graph.num_pis g) ~len:2048
  in
  let sigs = Sim.Engine.simulate g pats in
  let golden = Sim.Engine.po_values g sigs in
  let batch = Errest.Batch.create g ~metric:Errest.Metrics.Er ~golden ~base:sigs in
  let ands = ref [] in
  Graph.iter_ands g (fun id -> ands := id :: !ands);
  (* Flipped signatures force a full TFO re-simulation per candidate. *)
  let specs =
    Array.of_list
      (List.rev_map (fun id -> (id, Logic.Bitvec.lognot sigs.(id))) !ands)
  in
  let reference = Errest.Batch.candidate_errors batch specs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check
            (Printf.sprintf "candidate errors identical at jobs=%d" jobs)
            true
            (Errest.Batch.candidate_errors ~pool batch specs = reference)))
    [ 1; 2; test_jobs ]

let test_lac_determinism () =
  let g = Circuits.Epfl_control.cavlc () in
  let config = Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.05 in
  let rounds = 64 in
  let pats =
    Sim.Patterns.random (Logic.Rng.create 3) ~npis:(Graph.num_pis g) ~len:rounds
  in
  let sigs = Sim.Engine.simulate g pats in
  let reference = Core.Lac.generate g ~config ~sigs ~rounds in
  check "reference finds candidates" true (reference <> []);
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check
            (Printf.sprintf "LAC list identical (contents and order) at jobs=%d"
               jobs)
            true
            (Core.Lac.generate ~pool g ~config ~sigs ~rounds = reference)))
    [ 1; 2; test_jobs ]

(* ---------- End-to-end flow determinism ---------- *)

let flow_config jobs =
  { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.05) with
    Core.Config.eval_rounds = 2048; max_iters = 40; seed = 7; jobs }

let baseline = lazy (Core.Flow.run ~config:(flow_config 1) (Circuits.Epfl_control.cavlc ()))

let test_flow_jobs_determinism () =
  let a1, r1 = Lazy.force baseline in
  let aj, rj =
    Core.Flow.run ~config:(flow_config test_jobs) (Circuits.Epfl_control.cavlc ())
  in
  check "baseline applied enough LACs" true (r1.Core.Flow.applied >= 4);
  check_int "same applied count" r1.Core.Flow.applied rj.Core.Flow.applied;
  check_int "same final AND count" (Graph.num_ands a1) (Graph.num_ands aj);
  check "same event history" true (r1.Core.Flow.events = rj.Core.Flow.events);
  check "same final error" true
    (Float.equal r1.Core.Flow.final_est_error rj.Core.Flow.final_est_error);
  check "identical PO behaviour" true (Util.equivalent a1 aj);
  (* The report surfaces the pool's execution counters. *)
  check_int "one counter per lane" test_jobs (Array.length rj.Core.Flow.pool);
  check "pool executed work" true
    (Array.fold_left (fun acc s -> acc + s.Pool.tasks) 0 rj.Core.Flow.pool > 0)

let test_kill_resume_across_jobs () =
  (* Crash a sequential journaled run, resume it on a pool: the journaled
     RNG stream plus the determinism contract must still reproduce the
     uninterrupted sequential run bit-for-bit. *)
  let a_full, r_full = Lazy.force baseline in
  let dir = Filename.temp_file "alsrac_parallel" "" ^ ".d" in
  let config =
    { (flow_config 1) with
      Core.Config.fault = [ Core.Fault.Kill_after { applied = 3 } ] }
  in
  (match Core.Flow.run ~journal:dir ~config (Circuits.Epfl_control.cavlc ()) with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ());
  let a_res, r_res = Core.Flow.resume ~jobs:test_jobs dir in
  check "resumed flag set" true r_res.Core.Flow.resumed;
  check_int "same applied count" r_full.Core.Flow.applied r_res.Core.Flow.applied;
  check_int "same final AND count" (Graph.num_ands a_full) (Graph.num_ands a_res);
  check "same event history" true
    (r_full.Core.Flow.events = r_res.Core.Flow.events);
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

(* The clock is monotonic and fine-grained: successive readings never
   decrease, and the smallest step between two differing readings is far
   below the ~0.24 us quantum of a float count of seconds since 1970. *)
let test_clock () =
  let n = 100_000 in
  let reads = Array.init n (fun _ -> Parallel.Clock.now_ns ()) in
  let min_step = ref Int64.max_int in
  for i = 1 to n - 1 do
    let d = Int64.sub reads.(i) reads.(i - 1) in
    if Int64.compare d 0L < 0 then Alcotest.failf "clock went back by %Ld ns" d;
    if Int64.compare d 0L > 0 && Int64.compare d !min_step < 0 then min_step := d
  done;
  check "smallest positive step under 200 ns" true (Int64.compare !min_step 200L < 0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "parallel"
    [
      ("clock", [ tc "monotonic, sub-200 ns steps" `Quick test_clock ]);
      ( "pool",
        [
          tc "async/await basics" `Quick test_pool_basics;
          tc "jobs=0 detects cores" `Quick test_pool_detect_cores;
          tc "jobs=1 is eager" `Quick test_pool_sequential_eager;
          tc "nested submit/await" `Quick test_pool_nested_submit;
          tc "exception propagation + reuse" `Quick test_pool_exception_propagation;
          tc "execution counters" `Quick test_pool_stats;
          tc "cooperative cancellation" `Quick test_pool_cancellation;
          tc "chunk-boundary cancellation" `Quick test_chunk_cancellation;
        ] );
      ( "chunk",
        [
          tc "range coverage" `Quick test_chunk_ranges;
          tc "ordered float reduction" `Quick test_chunk_float_determinism;
          tc "map preserves slots" `Quick test_chunk_map_order;
        ] );
      ( "determinism",
        [
          tc "sharded simulation" `Quick test_engine_determinism;
          tc "batch candidate scoring" `Quick test_batch_determinism;
          tc "LAC generation" `Quick test_lac_determinism;
          tc "flow at jobs=1 vs jobs=N" `Slow test_flow_jobs_determinism;
          tc "kill + resume at different jobs" `Slow test_kill_resume_across_jobs;
        ] );
    ]
