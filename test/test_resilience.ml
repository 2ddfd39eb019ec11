(* Resilience layer: journaled checkpoint/resume, guarded transforms with
   rollback + quarantine, and fault injection proving each recovery path. *)

module Graph = Aig.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A unique run directory per test.  [temp_file] guarantees uniqueness
   across processes; the journal lives next to the (empty) marker file. *)
let fresh_dir () = Filename.temp_file "alsrac_resilience" "" ^ ".d"

(* All tests drive the same small flow: cavlc has 10 PIs, so the evaluation
   sample is exhaustive and every error below is exact. *)
let base_config =
  { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.05) with
    Core.Config.eval_rounds = 2048; max_iters = 40; seed = 7 }

let circuit () = Circuits.Epfl_control.cavlc ()

(* Uninterrupted reference run, shared by the determinism tests. *)
let baseline = lazy (Core.Flow.run ~config:base_config (circuit ()))

(* ---------- Journal serialization ---------- *)

let test_config_roundtrip () =
  let c =
    { (Core.Config.default ~metric:Errest.Metrics.Nmed ~threshold:0.015625) with
      Core.Config.seed = 42;
      sim_rounds = 48;
      scale = 0.85;
      max_seconds = infinity;
      input_probs = Some [| 0.25; 0.5; 0.75 |];
      use_odc = true;
      guard = false;
      confidence = 0.99 }
  in
  let c' = Core.Journal.config_of_string (Core.Journal.config_to_string c) in
  check "config round-trips" true (c = c')

let test_config_rejects_garbage () =
  (match Core.Journal.config_of_string "definitely not a config" with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  match Core.Journal.config_of_string "threshold banana" with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

let sample_state =
  {
    Core.Journal.rng_state = -4676534741114219574L;
    rounds = 28;
    patience = 2;
    shrinks_at_floor = 1;
    applied = 3;
    iteration = 9;
    accepts_since_full = 3;
    last_error = 0.015625;
    guard_rejects = 1;
    recovered_exns = 2;
    quarantined = [ 17; 42 ];
    policy_state = "";
    events =
      [
        { Core.Journal.iteration = 9; target = 31; est_error = 0.015625;
          ands_after = 600; rounds = 28 };
        { Core.Journal.iteration = 4; target = 12; est_error = 0.0;
          ands_after = 610; rounds = 32 };
      ];
  }

let test_journal_record_load_roundtrip () =
  let dir = fresh_dir () in
  let g = circuit () in
  let original = Graph.compact g in
  let j = Core.Journal.create ~dir ~config:base_config ~original in
  let state = sample_state in
  Core.Journal.record j state original;
  let r = Core.Journal.load dir in
  check "no degradation" true (r.Core.Journal.degraded = None);
  (match r.Core.Journal.state with
  | None -> Alcotest.fail "expected a checkpoint"
  | Some s -> check "state round-trips" true (s = state));
  check_int "graph round-trips" (Graph.num_ands original)
    (Graph.num_ands r.Core.Journal.graph);
  check "config round-trips" true (r.Core.Journal.config = base_config)

(* ---------- Kill-and-resume determinism ---------- *)

let run_killed_journaled dir ~kill_after =
  let config =
    { base_config with
      Core.Config.fault = [ Core.Fault.Kill_after { applied = kill_after } ] }
  in
  match Core.Flow.run ~journal:dir ~config (circuit ()) with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ()

let test_kill_and_resume_determinism () =
  let a_full, r_full = Lazy.force baseline in
  check "baseline applied enough LACs" true (r_full.Core.Flow.applied >= 4);
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:3;
  let a_res, r_res = Core.Flow.resume dir in
  check "resumed flag set" true r_res.Core.Flow.resumed;
  check_int "same final AND count" (Graph.num_ands a_full) (Graph.num_ands a_res);
  check_int "same applied count" r_full.Core.Flow.applied r_res.Core.Flow.applied;
  check_int "same event history" (List.length r_full.Core.Flow.events)
    (List.length r_res.Core.Flow.events);
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

let test_double_kill_and_resume () =
  (* Crash the resumed run too: resilience must compose. *)
  let a_full, r_full = Lazy.force baseline in
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:2;
  (match Core.Flow.resume ~fault:[ Core.Fault.Kill_after { applied = 4 } ] dir with
  | _ -> Alcotest.fail "expected the second kill to fire"
  | exception Core.Fault.Killed -> ());
  let a_res, r_res = Core.Flow.resume dir in
  check_int "same final AND count" (Graph.num_ands a_full) (Graph.num_ands a_res);
  check_int "same applied count" r_full.Core.Flow.applied r_res.Core.Flow.applied;
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

(* ---------- Journal corruption ---------- *)

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let test_resume_from_truncated_checkpoint () =
  let a_full, _ = Lazy.force baseline in
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:3;
  let cp = Filename.concat dir "checkpoint" in
  Core.Fault.truncate_file cp ~keep:(file_size cp / 2);
  let r = Core.Journal.load dir in
  check "torn checkpoint detected" true (r.Core.Journal.degraded <> None);
  check "fell back to the previous checkpoint" true (r.Core.Journal.state <> None);
  let a_res, _ = Core.Flow.resume dir in
  check_int "same final AND count despite torn checkpoint" (Graph.num_ands a_full)
    (Graph.num_ands a_res);
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

let test_resume_from_garbled_checkpoint () =
  let a_full, _ = Lazy.force baseline in
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:3;
  let cp = Filename.concat dir "checkpoint" in
  Core.Fault.corrupt_byte cp ~pos:(file_size cp / 2);
  let r = Core.Journal.load dir in
  check "bit rot detected" true (r.Core.Journal.degraded <> None);
  let a_res, _ = Core.Flow.resume dir in
  check_int "same final AND count despite bit rot" (Graph.num_ands a_full)
    (Graph.num_ands a_res)

let test_resume_after_total_checkpoint_loss () =
  (* Both snapshots corrupt: the journal falls back to a fresh start from
     the recorded original, which by determinism still converges to the
     baseline result. *)
  let a_full, _ = Lazy.force baseline in
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:3;
  Core.Fault.truncate_file (Filename.concat dir "checkpoint") ~keep:7;
  Core.Fault.truncate_file (Filename.concat dir "checkpoint.prev") ~keep:7;
  let r = Core.Journal.load dir in
  check "degraded to fresh start" true
    (r.Core.Journal.degraded <> None && r.Core.Journal.state = None);
  let a_res, r_res = Core.Flow.resume dir in
  check "fresh restart is not flagged resumed" true (not r_res.Core.Flow.resumed);
  check_int "same final AND count from scratch" (Graph.num_ands a_full)
    (Graph.num_ands a_res)

let test_corrupt_manifest_fails_cleanly () =
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:2;
  Core.Fault.truncate_file (Filename.concat dir "manifest") ~keep:25;
  match Core.Journal.load dir with
  | _ -> Alcotest.fail "expected Failure on a corrupt manifest"
  | exception Failure _ -> ()

(* ---------- On-disk format ---------- *)

(* The manifest of a default-config MRED <= 0.19531% run, naming
   candidate-selection policy [policy], and the loop-state section of the
   checkpoint holding [sample_state]: byte for byte the formats journals have
   always been written in, with a [policy greedy] line and an empty
   [policy_state] line. *)
let mred_threshold = 0.0019531

let mred_manifest ~policy =
  "alsrac-journal 1\n\
   metric mred\n\
   threshold 0x1.fffe5280d6543p-10\n\
   sim_rounds 32\n\
   lac_limit 1\n\
   patience 5\n\
   scale 0x1.ccccccccccccdp-1\n\
   min_rounds 4\n\
   eval_rounds 4096\n\
   max_tfi_divisors 5000\n\
   seed 1\n\
   resyn compress2\n\
   max_iters 10000\n\
   margin 0x1p+0\n\
   max_seconds inf\n\
   distr unif\n\
   input_probs none\n\
   max_depth_growth 0x1.4cccccccccccdp+0\n\
   use_odc false\n\
   guard true\n\
   guard_tol 0x1.12e0be826d695p-30\n\
   confidence 0x1.ff7ced916872bp-1\n\
   certify_exact false\n\
   exact_resub false\n\
   jobs 1\n\
   policy " ^ policy ^ "\n\
   end\n"

let sample_state_section =
  "alsrac-checkpoint 1\n\
   rng -4676534741114219574\n\
   rounds 28\n\
   patience 2\n\
   shrinks_at_floor 1\n\
   applied 3\n\
   iteration 9\n\
   accepts_since_full 3\n\
   last_error 0x1p-6\n\
   guard_rejects 1\n\
   recovered_exns 2\n\
   quarantined 17 42\n\
   policy_state \n\
   events 2\n\
   9 31 0x1p-6 600 28\n\
   4 12 0x0p+0 610 32\n\
   graph "

let mred_config =
  Core.Config.default ~metric:Errest.Metrics.Mred ~threshold:mred_threshold

let int2float () = Circuits.Epfl_control.int2float ()

let test_format_pinned () =
  let dir = fresh_dir () in
  let original = Graph.compact (int2float ()) in
  let j = Core.Journal.create ~dir ~config:mred_config ~original in
  check_str "manifest bytes" (mred_manifest ~policy:"greedy")
    (Util.read_file (Filename.concat dir "manifest"));
  Core.Journal.record j sample_state original;
  let cp = Util.read_file (Filename.concat dir "checkpoint") in
  let n = String.length sample_state_section in
  check_str "checkpoint state bytes" sample_state_section
    (String.sub cp 0 (min n (String.length cp)))

(* A default-config MRED journal of int2float, killed after two accepted
   LACs (an uninterrupted run accepts four). *)
let killed_mred_journal () =
  let dir = fresh_dir () in
  let config =
    { mred_config with Core.Config.fault = [ Core.Fault.Kill_after { applied = 2 } ] }
  in
  (match Core.Flow.run ~journal:dir ~config (int2float ()) with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ());
  dir

let test_format_kill_and_resume () =
  let full, _ = Core.Flow.run ~config:mred_config (int2float ()) in
  let dir = killed_mred_journal () in
  check_str "manifest bytes" (mred_manifest ~policy:"greedy")
    (Util.read_file (Filename.concat dir "manifest"));
  check "checkpoint has an empty policy_state line" true
    (Util.contains (Util.read_file (Filename.concat dir "checkpoint")) "\npolicy_state \n");
  let resumed, r = Core.Flow.resume dir in
  check "resumed flag set" true r.Core.Flow.resumed;
  check_str "resumed output bytes"
    (Circuit_io.Aiger.graph_to_string full)
    (Circuit_io.Aiger.graph_to_string resumed)

let test_removed_policy_rejected () =
  let names_ucb1 = function
    | Failure msg -> Util.contains msg "\"ucb1\""
    | _ -> false
  in
  (match Core.Journal.config_of_string "policy ucb1" with
  | _ -> Alcotest.fail "parsed a ucb1 config"
  | exception e -> check "parse failure names the policy" true (names_ucb1 e));
  let dir = killed_mred_journal () in
  Util.write_file (Filename.concat dir "manifest") (mred_manifest ~policy:"ucb1");
  match Core.Flow.resume dir with
  | _ -> Alcotest.fail "resumed a ucb1 run"
  | exception e -> check "resume failure names the policy" true (names_ucb1 e)

(* ---------- CLI resume reports the journaled run ---------- *)

let alsrac_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/alsrac.exe"

let run_cli args =
  let ic = Unix.open_process_args_in alsrac_exe (Array.of_list (alsrac_exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "alsrac %s failed:\n%s" (String.concat " " args) out

let line_starting prefix text =
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
  with
  | Some line -> line
  | None -> Alcotest.failf "no %S line in:\n%s" prefix text

let test_cli_resume_reports_journaled_run () =
  (* Resumed without [-m] (the command line's default metric is ER) and
     under any CIRCUIT name, the report and the output are the MRED run's. *)
  let full_aag = Filename.temp_file "alsrac_full" ".aag" in
  let full =
    run_cli [ "approx"; "int2float"; "-m"; "mred"; "-t"; "0.0019531"; "-o"; full_aag ]
  in
  List.iter
    (fun circuit ->
      let dir = killed_mred_journal () in
      let out_aag = Filename.temp_file "alsrac_resumed" ".aag" in
      let resumed = run_cli [ "approx"; circuit; "--resume"; dir; "-o"; out_aag ] in
      let what = Printf.sprintf "resumed as %s: " circuit in
      check (what ^ "sampled mred") true (Util.contains resumed ", sampled mred = ");
      List.iter
        (fun prefix ->
          check_str (what ^ prefix) (line_starting prefix full)
            (line_starting prefix resumed))
        [ "stop: "; "certified mred <= "; "measured mred = " ];
      check_str (what ^ "output bytes") (Util.read_file full_aag) (Util.read_file out_aag);
      Sys.remove out_aag)
    [ "int2float"; "c880" ];
  Sys.remove full_aag

(* ---------- Guarded transforms ---------- *)

let test_corrupt_lac_rolled_back_and_quarantined () =
  (* Corrupt the chosen LAC of the first five iterations: the guard's
     signature probe must catch the mismatch, roll back, and quarantine. *)
  let fault =
    List.init 5 (fun i -> Core.Fault.Corrupt_lac { iteration = i + 1 })
  in
  let config = { base_config with Core.Config.fault } in
  let g = circuit () in
  let approx, report = Core.Flow.run ~config g in
  check "guard fired" true (report.Core.Flow.guard_rejects >= 1);
  check "targets quarantined" true (report.Core.Flow.quarantined >= 1);
  (* Exhaustive evaluation: the exact error still respects the budget. *)
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "error still within threshold" true (exact <= 0.05 +. 1e-9);
  check "interface preserved" true
    (Graph.num_pis approx = Graph.num_pis g && Graph.num_pos approx = Graph.num_pos g)

let test_corrupt_lac_without_guard_poisons () =
  (* Sanity check on the harness itself: with the guard off, the same
     corruption silently commits a wrong graph (the whole point of keeping
     the guard always-on). *)
  let fault = List.init 5 (fun i -> Core.Fault.Corrupt_lac { iteration = i + 1 }) in
  let config = { base_config with Core.Config.fault; guard = false } in
  let _, report = Core.Flow.run ~config (circuit ()) in
  check "no guard, no rollback" true (report.Core.Flow.guard_rejects = 0)

let test_signature_flip_rolled_back () =
  (* Flip one evaluation-signature bit on every node for a few iterations:
     every prediction made from the skewed signatures disagrees with the
     re-measured truth, so the guard must reject those commits. *)
  let fault =
    List.init 3 (fun i -> Core.Fault.Flip_signatures { iteration = i + 1; bit = 0 })
  in
  let config = { base_config with Core.Config.fault } in
  let g = circuit () in
  let approx, report = Core.Flow.run ~config g in
  check "guard fired on skewed signatures" true (report.Core.Flow.guard_rejects >= 1);
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "error still within threshold" true (exact <= 0.05 +. 1e-9)

let test_injected_exception_recovered () =
  let fault =
    [ Core.Fault.Raise_at { iteration = 1 }; Core.Fault.Raise_at { iteration = 3 } ]
  in
  let config = { base_config with Core.Config.fault } in
  let g = circuit () in
  let approx, report = Core.Flow.run ~config g in
  check_int "both exceptions recovered" 2 report.Core.Flow.recovered_exns;
  check "flow still made progress" true (report.Core.Flow.applied >= 1);
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "error still within threshold" true (exact <= 0.05 +. 1e-9)

let test_faulty_run_still_journals () =
  (* Faults and journaling compose: a run surviving injected corruption
     still checkpoints, and its resume completes. *)
  let dir = fresh_dir () in
  let fault =
    [ Core.Fault.Corrupt_lac { iteration = 2 };
      Core.Fault.Raise_at { iteration = 4 };
      Core.Fault.Kill_after { applied = 3 } ]
  in
  let config = { base_config with Core.Config.fault } in
  (match Core.Flow.run ~journal:dir ~config (circuit ()) with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ());
  let _, report = Core.Flow.resume dir in
  check "resume completed" true (report.Core.Flow.applied >= 3);
  check "fault counters persisted across resume" true
    (report.Core.Flow.guard_rejects >= 1 || report.Core.Flow.recovered_exns >= 1)

let () =
  Alcotest.run "resilience"
    [
      ( "journal",
        [
          Alcotest.test_case "config round-trip" `Quick test_config_roundtrip;
          Alcotest.test_case "config rejects garbage" `Quick test_config_rejects_garbage;
          Alcotest.test_case "record/load round-trip" `Quick
            test_journal_record_load_roundtrip;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill and resume determinism" `Slow
            test_kill_and_resume_determinism;
          Alcotest.test_case "double kill and resume" `Slow test_double_kill_and_resume;
          Alcotest.test_case "truncated checkpoint" `Slow
            test_resume_from_truncated_checkpoint;
          Alcotest.test_case "garbled checkpoint" `Slow
            test_resume_from_garbled_checkpoint;
          Alcotest.test_case "total checkpoint loss" `Slow
            test_resume_after_total_checkpoint_loss;
          Alcotest.test_case "corrupt manifest" `Quick test_corrupt_manifest_fails_cleanly;
        ] );
      ( "format",
        [
          Alcotest.test_case "manifest and checkpoint bytes" `Quick test_format_pinned;
          Alcotest.test_case "kill and resume" `Quick test_format_kill_and_resume;
          Alcotest.test_case "removed policy rejected" `Quick test_removed_policy_rejected;
          Alcotest.test_case "CLI resume reports the journaled run" `Quick
            test_cli_resume_reports_journaled_run;
        ] );
      ( "guard",
        [
          Alcotest.test_case "corrupt LAC rolled back" `Slow
            test_corrupt_lac_rolled_back_and_quarantined;
          Alcotest.test_case "corrupt LAC without guard" `Slow
            test_corrupt_lac_without_guard_poisons;
          Alcotest.test_case "signature flip rolled back" `Slow
            test_signature_flip_rolled_back;
          Alcotest.test_case "injected exception recovered" `Slow
            test_injected_exception_recovered;
          Alcotest.test_case "faults + journal compose" `Slow test_faulty_run_still_journals;
        ] );
    ]
