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
  Util.truncate_file cp ~keep:(file_size cp / 2);
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
  Util.corrupt_byte cp ~pos:(file_size cp / 2);
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
  Util.truncate_file (Filename.concat dir "checkpoint") ~keep:7;
  Util.truncate_file (Filename.concat dir "checkpoint.prev") ~keep:7;
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
  Util.truncate_file (Filename.concat dir "manifest") ~keep:25;
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

(* Exit status and combined stdout + stderr of one CLI call. *)
let run_cli_status args =
  let ((out, _, err) as proc) =
    Unix.open_process_args_full alsrac_exe (Array.of_list (alsrac_exe :: args))
      (Unix.environment ())
  in
  let text = In_channel.input_all out in
  let text = text ^ In_channel.input_all err in
  match Unix.close_process_full proc with
  | Unix.WEXITED code -> (code, text)
  | _ -> Alcotest.failf "alsrac %s did not exit" (String.concat " " args)

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

let test_cli_eval_interface_mismatch () =
  (* c880 has 22 PIs, c1908 21: [eval] must refuse them with a message, as
     [cec] does, not crash. *)
  let code, text = run_cli_status [ "eval"; "c880"; "c1908"; "-m"; "er" ] in
  check_int "exit status" 1 code;
  check "names both PI counts" true
    (Util.contains text "c880 has 22" && Util.contains text "c1908 has 21");
  check "no internal error" false (Util.contains text "internal error")

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

(* ---------- Pinned outputs under fault plans ---------- *)

(* Generated circuits whose runs have long stretches of iterations that
   accept nothing.  Every fault sits two iterations into the longest such
   stretch of the fault-free run, so the iterations before it have already
   scored and size-checked candidates on the unchanged graph. *)
let pin_profile = { Verify.Gen.default with Verify.Gen.npis = 10; npos = 6; nands = 150 }

let pin_runs =
  [ (1, "er", 13); (1, "mred", 13); (4, "er", 22); (4, "mred", 27); (5, "er", 13);
    (5, "mred", 18) ]

let pin_plans iteration =
  [ ("none", []);
    ("flip", [ Core.Fault.Flip_signatures { iteration; bit = 3 } ]);
    ("corrupt", [ Core.Fault.Corrupt_lac { iteration } ]);
    ("raise", [ Core.Fault.Raise_at { iteration } ]);
    ( "flip+corrupt",
      [ Core.Fault.Flip_signatures { iteration; bit = 3 };
        Core.Fault.Corrupt_lac { iteration } ] ) ]

let pin_config ~seed ~metric ~fault =
  let metric = Option.get (Errest.Metrics.kind_of_string metric) in
  { (Core.Config.default ~metric ~threshold:0.02) with Core.Config.seed; fault }

let pin_row (g, (r : Core.Flow.report)) =
  let events =
    String.concat ";"
      (List.map
         (fun (e : Core.Flow.event) ->
           Printf.sprintf "%d %d %h %d %d" e.Core.Flow.iteration e.Core.Flow.target
             e.Core.Flow.est_error e.Core.Flow.ands_after e.Core.Flow.rounds)
         r.Core.Flow.events)
  in
  Printf.sprintf "%s applied=%d events=%s stop=%s guard=%d quarantined=%d exns=%d rounds=%d"
    (Digest.to_hex (Digest.string (Circuit_io.Aiger.graph_to_string g)))
    r.Core.Flow.applied
    (String.sub (Digest.to_hex (Digest.string events)) 0 12)
    (Core.Flow.stop_reason_to_string r.Core.Flow.stop_reason)
    r.Core.Flow.guard_rejects r.Core.Flow.quarantined r.Core.Flow.recovered_exns
    r.Core.Flow.final_rounds

(* Recorded with the unmemoised loop: the candidate memo must leave every
   output byte and report field as it was. *)
let pinned_rows =
  [
    "gen1 er none@13: 943a586fa5e6a633945cb1be76dc7015 applied=11 events=77636831a0c8 stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=4";
    "gen1 er flip@13: 943a586fa5e6a633945cb1be76dc7015 applied=11 events=77636831a0c8 stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=4";
    "gen1 er corrupt@13: 943a586fa5e6a633945cb1be76dc7015 applied=11 events=77636831a0c8 stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=4";
    "gen1 er raise@13: 943a586fa5e6a633945cb1be76dc7015 applied=11 events=a46c7afde701 stop=budget-exhausted guard=0 quarantined=0 exns=1 rounds=4";
    "gen1 er flip+corrupt@13: 943a586fa5e6a633945cb1be76dc7015 applied=11 events=77636831a0c8 stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=4";
    "gen1 mred none@13: bd45cc870db8f282b90ba5081fa43c9f applied=11 events=4f33656db52a stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=5";
    "gen1 mred flip@13: bd45cc870db8f282b90ba5081fa43c9f applied=11 events=4f33656db52a stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=5";
    "gen1 mred corrupt@13: bd45cc870db8f282b90ba5081fa43c9f applied=11 events=4f33656db52a stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=5";
    "gen1 mred raise@13: bd45cc870db8f282b90ba5081fa43c9f applied=11 events=4f33656db52a stop=budget-exhausted guard=0 quarantined=0 exns=1 rounds=5";
    "gen1 mred flip+corrupt@13: bd45cc870db8f282b90ba5081fa43c9f applied=11 events=4f33656db52a stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=5";
    "gen4 er none@22: 42ab4dc4e12db9d87d3a933edd716e86 applied=16 events=aad2e80740ea stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=4";
    "gen4 er flip@22: 42ab4dc4e12db9d87d3a933edd716e86 applied=16 events=aad2e80740ea stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=4";
    "gen4 er corrupt@22: 42ab4dc4e12db9d87d3a933edd716e86 applied=16 events=aad2e80740ea stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=4";
    "gen4 er raise@22: 42ab4dc4e12db9d87d3a933edd716e86 applied=16 events=aad2e80740ea stop=budget-exhausted guard=0 quarantined=0 exns=1 rounds=4";
    "gen4 er flip+corrupt@22: 42ab4dc4e12db9d87d3a933edd716e86 applied=16 events=aad2e80740ea stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=4";
    "gen4 mred none@27: 3457f9ec6059c3700c663b21398e77c4 applied=18 events=94beb737896a stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=5";
    "gen4 mred flip@27: ebe2b746bfaeb38eca476cf0ebf83803 applied=15 events=25c6a49f709d stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=28";
    "gen4 mred corrupt@27: 3457f9ec6059c3700c663b21398e77c4 applied=18 events=94beb737896a stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=5";
    "gen4 mred raise@27: 3457f9ec6059c3700c663b21398e77c4 applied=18 events=94beb737896a stop=budget-exhausted guard=0 quarantined=0 exns=1 rounds=5";
    "gen4 mred flip+corrupt@27: ebe2b746bfaeb38eca476cf0ebf83803 applied=15 events=25c6a49f709d stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=28";
    "gen5 er none@13: 1d2d140dcbb0a7b22f67454bd6f23cf5 applied=12 events=4084f067932e stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=4";
    "gen5 er flip@13: 1d2d140dcbb0a7b22f67454bd6f23cf5 applied=12 events=4084f067932e stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=4";
    "gen5 er corrupt@13: 1d2d140dcbb0a7b22f67454bd6f23cf5 applied=12 events=4084f067932e stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=4";
    "gen5 er raise@13: 1d2d140dcbb0a7b22f67454bd6f23cf5 applied=12 events=4084f067932e stop=budget-exhausted guard=0 quarantined=0 exns=1 rounds=4";
    "gen5 er flip+corrupt@13: 1d2d140dcbb0a7b22f67454bd6f23cf5 applied=12 events=4084f067932e stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=4";
    "gen5 mred none@18: 83b0304a033fd96abe6d04a06d83f7db applied=13 events=c1a4b401bc86 stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=4";
    "gen5 mred flip@18: 83b0304a033fd96abe6d04a06d83f7db applied=13 events=c1a4b401bc86 stop=budget-exhausted guard=0 quarantined=0 exns=0 rounds=4";
    "gen5 mred corrupt@18: 83b0304a033fd96abe6d04a06d83f7db applied=13 events=c1a4b401bc86 stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=4";
    "gen5 mred raise@18: 83b0304a033fd96abe6d04a06d83f7db applied=13 events=c1a4b401bc86 stop=budget-exhausted guard=0 quarantined=0 exns=1 rounds=4";
    "gen5 mred flip+corrupt@18: 83b0304a033fd96abe6d04a06d83f7db applied=13 events=c1a4b401bc86 stop=budget-exhausted guard=1 quarantined=1 exns=0 rounds=4"
  ]

let test_jobs = Util.test_jobs

let test_faults_pinned () =
  let rows = ref [] in
  List.iter
    (fun (seed, metric, iteration) ->
      let g = Verify.Gen.random ~profile:pin_profile seed in
      List.iter
        (fun (plan_name, fault) ->
          let name = Printf.sprintf "gen%d %s %s@%d" seed metric plan_name iteration in
          let config = pin_config ~seed ~metric ~fault in
          let row = pin_row (Core.Flow.run ~config g) in
          rows := (name ^ ": " ^ row) :: !rows;
          check_str (name ^ " at jobs " ^ string_of_int test_jobs) row
            (pin_row (Core.Flow.run ~config:{ config with Core.Config.jobs = test_jobs } g));
          (* Killed right after the last accept before the fault, resumed
             under the same plan: the fault fires in the resumed process. *)
          let _, r = Core.Flow.run ~config g in
          let before =
            List.length
              (List.filter (fun (e : Core.Flow.event) -> e.Core.Flow.iteration < iteration)
                 r.Core.Flow.events)
          in
          let dir = fresh_dir () in
          let killed =
            { config with Core.Config.fault = Core.Fault.Kill_after { applied = before } :: fault }
          in
          (match Core.Flow.run ~journal:dir ~config:killed g with
          | _ -> Alcotest.failf "%s: expected the injected kill to fire" name
          | exception Core.Fault.Killed -> ());
          check_str (name ^ " after kill and resume") row
            (pin_row (Core.Flow.resume ~fault dir)))
        (pin_plans iteration))
    pin_runs;
  let rows = List.rev !rows in
  if rows <> pinned_rows then
    Alcotest.failf "pinned rows differ; this build gives:\n%s"
      (String.concat "\n" (List.map (Printf.sprintf "    %S;") rows))

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
      ( "cli",
        [
          Alcotest.test_case "eval rejects mismatched interfaces" `Quick
            test_cli_eval_interface_mismatch;
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
          Alcotest.test_case "pinned outputs under faults" `Slow test_faults_pinned;
        ] );
    ]
