type gate = {
  name : string;
  ninputs : int;
  tt : Logic.Truth.t;
  area : float;
  delay : float;
}

type t = { name : string; gates : gate list }

let inverter t =
  let is_inv g =
    g.ninputs = 1 && Logic.Truth.equal g.tt (Logic.Truth.bnot (Logic.Truth.var 1 0))
  in
  match List.filter is_inv t.gates with
  | [] -> failwith (Printf.sprintf "Library %s has no inverter" t.name)
  | invs ->
      List.fold_left (fun best g -> if g.area < best.area then g else best)
        (List.hd invs) (List.tl invs)

let max_inputs t = List.fold_left (fun acc g -> max acc g.ninputs) 0 t.gates

let find t name = List.find_opt (fun (g : gate) -> g.name = name) t.gates

(* Gate functions written over variables a=0, b=1, c=2, d=3. *)
let v n i = Logic.Truth.var n i

let gate name ninputs tt area delay = { name; ninputs; tt; area; delay }

let mcnc =
  let open Logic.Truth in
  let and2 = band (v 2 0) (v 2 1) in
  let or2 = bor (v 2 0) (v 2 1) in
  let and3 = band (band (v 3 0) (v 3 1)) (v 3 2) in
  let or3 = bor (bor (v 3 0) (v 3 1)) (v 3 2) in
  let and4 = band (band (v 4 0) (v 4 1)) (band (v 4 2) (v 4 3)) in
  let or4 = bor (bor (v 4 0) (v 4 1)) (bor (v 4 2) (v 4 3)) in
  let xor2 = bxor (v 2 0) (v 2 1) in
  let aoi21 = bnot (bor (band (v 3 0) (v 3 1)) (v 3 2)) in
  let oai21 = bnot (band (bor (v 3 0) (v 3 1)) (v 3 2)) in
  let aoi22 = bnot (bor (band (v 4 0) (v 4 1)) (band (v 4 2) (v 4 3))) in
  let oai22 = bnot (band (bor (v 4 0) (v 4 1)) (bor (v 4 2) (v 4 3))) in
  let mux2 =
    (* out = s ? a : b  with s=var2, a=var0, b=var1. *)
    bor (band (v 3 2) (v 3 0)) (band (bnot (v 3 2)) (v 3 1))
  in
  {
    name = "mcnc";
    gates =
      [
        gate "inv" 1 (bnot (v 1 0)) 1.0 0.9;
        gate "nand2" 2 (bnot and2) 2.0 1.0;
        gate "nand3" 3 (bnot and3) 3.0 1.1;
        gate "nand4" 4 (bnot and4) 4.0 1.2;
        gate "nor2" 2 (bnot or2) 2.0 1.4;
        gate "nor3" 3 (bnot or3) 3.0 2.4;
        gate "nor4" 4 (bnot or4) 4.0 3.8;
        gate "and2" 2 and2 3.0 1.9;
        gate "or2" 2 or2 3.0 2.4;
        gate "xor2" 2 xor2 5.0 1.9;
        gate "xnor2" 2 (bnot xor2) 5.0 2.1;
        gate "aoi21" 3 aoi21 3.0 1.6;
        gate "aoi22" 4 aoi22 4.0 2.0;
        gate "oai21" 3 oai21 3.0 1.6;
        gate "oai22" 4 oai22 4.0 2.0;
        gate "mux2" 3 mux2 5.0 1.8;
      ];
  }
