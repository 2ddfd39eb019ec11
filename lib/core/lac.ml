module Graph = Aig.Graph

type t = {
  target : int;
  divisors : int array;
  cover : Logic.Cover.t;
  expr : Logic.Factor.expr;
  gain : int;
}

(* Algorithm 2 stops at the first feasible sets in savings order, so the
   sets are visited lazily in that order ([Divisor.iter_ranked], keyed by
   savings) and each is care-scanned only when it comes up.  Deriving a
   function (and its factored cost) decides whether a set yields a
   candidate; at most this many sets per node are derived. *)
let derivations_per_node = 8

(* Candidates of one target node, in the order the sequential flow has
   always produced them.  Pure in everything shared: the graph, signatures,
   fanout counts and ODC masks are only read, all scratch state is local —
   which is what makes the per-node fan-out below safe. *)
let candidates_for ?obs g ~(config : Config.t) ~sigs ~rounds ~fanouts v =
  let mffc = Aig.Cone.mffc g ~fanouts v in
  let mask = Option.map (fun o -> o.(v)) obs in
  let found = ref 0 and derived = ref 0 in
  let quota_met () = !derived >= derivations_per_node || !found >= config.lac_limit in
  let candidates = ref [] in
  Divisor.iter_ranked (Divisor.lac_blocks g ~max_tfi:config.max_tfi_divisors ~mffc v)
    (fun ~key:savings divisors ->
      if quota_met () || savings < 1 then `Stop
      else begin
        (match Resub.attempt ?mask ~sigs ~rounds ~node:v ~savings divisors with
        | Some (cover, expr, gain) ->
            incr derived;
            if gain >= 0 then begin
              incr found;
              candidates := { target = v; divisors; cover; expr; gain } :: !candidates
            end
        | None -> ());
        if quota_met () then `Stop else `Continue
      end);
  !candidates

let generate ?obs ?pool g ~(config : Config.t) ~sigs ~rounds =
  let fanouts = Aig.Topo.fanout_counts g in
  let nodes = ref [] in
  Graph.iter_ands g (fun v -> if fanouts.(v) > 0 then nodes := v :: !nodes);
  let nodes = Array.of_list (List.rev !nodes) in
  let per_node =
    Parallel.Chunk.map ?pool ~n:(Array.length nodes) (fun i ->
        candidates_for ?obs g ~config ~sigs ~rounds ~fanouts nodes.(i))
  in
  List.concat (Array.to_list per_node)

let replacement lac = Graph.Replace_expr (lac.expr, lac.divisors)

let pp ppf lac =
  Format.fprintf ppf "node %d <- %a over [%a] (gain %d)" lac.target Logic.Factor.pp
    lac.expr
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (Array.to_list lac.divisors)
    lac.gain
