type t = { nvars : int; cubes : Cube.t list }

let make nvars cubes =
  if nvars < 0 || nvars > 30 then invalid_arg "Cover.make: bad variable count";
  let all = if nvars = 0 then 0 else (1 lsl nvars) - 1 in
  List.iter
    (fun c ->
      if Cube.vars_mask c land lnot all <> 0 then
        invalid_arg "Cover.make: literal out of range")
    cubes;
  { nvars; cubes }

let const0 nvars = { nvars; cubes = [] }

let const1 nvars = { nvars; cubes = [ Cube.full ] }

let num_cubes t = List.length t.cubes

let num_lits t = List.fold_left (fun acc c -> acc + Cube.num_lits c) 0 t.cubes

let to_truth t =
  List.fold_left
    (fun acc c -> Truth.bor acc (Cube.to_truth t.nvars c))
    (Truth.const0 t.nvars) t.cubes

let covers t f = Truth.is_const0 (Truth.bdiff f (to_truth t))

let within t f = Truth.is_const0 (Truth.bdiff (to_truth t) f)

let eval_sigs t ~pos_sigs =
  match pos_sigs with
  | [||] ->
      (* A zero-variable cover is a constant; represent over length 0. *)
      Bitvec.create 0
  | _ ->
      let len = Bitvec.length pos_sigs.(0) in
      let acc = Bitvec.create len in
      let tmp = Bitvec.create len in
      List.iter
        (fun c ->
          Cube.eval_sigs c ~pos_sigs tmp;
          Bitvec.logor_inplace acc tmp)
        t.cubes;
      acc

let to_pla_rows t = List.map (fun c -> Cube.to_string t.nvars c ^ " 1") t.cubes

let pp ppf t =
  if t.cubes = [] then Format.pp_print_string ppf "<const0>"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
      (fun ppf c ->
        if Cube.num_lits c = 0 then Format.pp_print_string ppf "<const1>"
        else Cube.pp t.nvars ppf c)
      ppf t.cubes
