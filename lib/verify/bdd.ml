type node = int
(* 0 = false terminal, 1 = true terminal, >= 2 internal.  Internal node i
   branches on [var_of.(i)]: [lo_of.(i)] when false, [hi_of.(i)] when
   true.  Ordered (variable indices strictly increase toward the leaves)
   and reduced (no node with lo = hi; unique table), so representation is
   canonical: only node 0 denotes the constant-false function. *)

type mgr = {
  nvars : int;
  limit : int;
  mutable var_of : int array;
  mutable lo_of : int array;
  mutable hi_of : int array;
  mutable n : int;
  unique : (int * int * int, int) Hashtbl.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
}

exception Node_limit

let terminal_var = max_int

let create ?(limit = 1_000_000) ~nvars () =
  let cap = 1024 in
  let m =
    {
      nvars;
      limit;
      var_of = Array.make cap terminal_var;
      lo_of = Array.make cap 0;
      hi_of = Array.make cap 0;
      n = 2;
      unique = Hashtbl.create 4096;
      ite_cache = Hashtbl.create 4096;
    }
  in
  m.lo_of.(1) <- 1;
  m.hi_of.(1) <- 1;
  m

let cfalse _ = 0
let is_false _ f = f = 0
let num_nodes m = m.n

let grow m =
  let cap = Array.length m.var_of in
  if m.n >= cap then begin
    let cap' = 2 * cap in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    m.var_of <- extend m.var_of terminal_var;
    m.lo_of <- extend m.lo_of 0;
    m.hi_of <- extend m.hi_of 0
  end

let mk m v lo hi =
  if lo = hi then lo
  else
    let key = (v, lo, hi) in
    match Hashtbl.find_opt m.unique key with
    | Some id -> id
    | None ->
        if m.n >= m.limit then raise Node_limit;
        grow m;
        let id = m.n in
        m.n <- id + 1;
        m.var_of.(id) <- v;
        m.lo_of.(id) <- lo;
        m.hi_of.(id) <- hi;
        Hashtbl.add m.unique key id;
        id

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Verify.Bdd.var: index out of range";
  mk m i 0 1

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some r -> r
    | None ->
        let top =
          min m.var_of.(f) (min m.var_of.(g) m.var_of.(h))
        in
        let cof x =
          if x < 2 || m.var_of.(x) <> top then (x, x) else (m.lo_of.(x), m.hi_of.(x))
        in
        let f0, f1 = cof f and g0, g1 = cof g and h0, h1 = cof h in
        let r0 = ite m f0 g0 h0 in
        let r1 = ite m f1 g1 h1 in
        let r = mk m top r0 r1 in
        Hashtbl.add m.ite_cache key r;
        r

let not_ m f = ite m f 0 1
let and_ m f g = ite m f g 0

let copy_to ~src ~dst roots =
  let memo = Hashtbl.create 4096 in
  let rec go f =
    if f < 2 then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
          let r0 = go src.lo_of.(f) in
          let r1 = go src.hi_of.(f) in
          let r = mk dst src.var_of.(f) r0 r1 in
          Hashtbl.add memo f r;
          r
  in
  Array.map go roots

let any_sat m f =
  if f = 0 then invalid_arg "Verify.Bdd.any_sat: constant false";
  (* Canonicity guarantees every non-false node has a path to the true
     terminal along children that are themselves non-false. *)
  let rec walk acc f =
    if f = 1 then List.rev acc
    else if m.hi_of.(f) <> 0 then walk ((m.var_of.(f), true) :: acc) m.hi_of.(f)
    else walk ((m.var_of.(f), false) :: acc) m.lo_of.(f)
  in
  walk [] f
