(* Deterministic chunked iteration on top of the pool.

   The determinism contract (DESIGN.md section 8): chunk boundaries are a
   function of [n] and [chunk_size] ONLY — never of the pool size or of
   scheduling.  A computation whose per-chunk work is a pure function of
   its index range therefore produces bit-identical results at any [jobs]
   setting, including jobs = 1 and no pool at all (both run the same chunks
   in order). *)

let default_max_chunks = 64

let chunk_size_for ?chunk_size n =
  match chunk_size with
  | Some c ->
      if c <= 0 then invalid_arg "Chunk: chunk_size must be positive";
      c
  | None -> max 1 ((n + default_max_chunks - 1) / default_max_chunks)

let ranges ?chunk_size n =
  if n < 0 then invalid_arg "Chunk: negative n";
  let cs = chunk_size_for ?chunk_size n in
  let k = (n + cs - 1) / cs in
  Array.init k (fun i -> (i * cs, min n ((i + 1) * cs)))

(* Run [f lo hi] once per chunk.  The parallel path fans chunks out as pool
   tasks and awaits them all (the caller helps); the sequential path runs
   the SAME chunks in order. *)
let iter ?pool ?chunk_size ~n f =
  let rs = ranges ?chunk_size n in
  let k = Array.length rs in
  let exec i =
    let lo, hi = rs.(i) in
    f lo hi
  in
  match pool with
  | Some p when Pool.size p > 1 && k > 1 ->
      (* The pool checks its cancellation hook before each chunk task. *)
      let futs = Array.init k (fun i -> Pool.async p (fun () -> exec i)) in
      Array.iter (fun fut -> Pool.await p fut) futs
  | pool ->
      (* Sequential fallback honours the same chunk-boundary cancellation
         contract as the parallel path. *)
      for i = 0 to k - 1 do
        (match pool with
        | Some p when Pool.cancelled p -> raise Pool.Cancelled
        | _ -> ());
        exec i
      done

let map ?pool ?chunk_size ~n f =
  let out = Array.make n None in
  iter ?pool ?chunk_size ~n (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- Some (f i)
      done);
  Array.map
    (function Some v -> v | None -> invalid_arg "Chunk.map: missing element")
    out
