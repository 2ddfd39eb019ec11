#!/usr/bin/env bash
# One CI check, by name: tools/ci.sh ENTRY, run from the repository root.
# .github/workflows/ci.yml runs every entry as one matrix job; the same
# command runs it locally.  Everything an entry writes (bench JSON, outputs,
# shrunk counterexamples) lands in _ci/ENTRY/, which CI uploads.
set -euo pipefail

entry=${1:?usage: tools/ci.sh test|test-jobs4|scoring|core|e2e|prop-N|serve|explore|resub|matrix}
out=_ci/$entry
rm -rf "$out"
mkdir -p "$out"
dune build
set -x
BIN=$PWD/_build/default/bin/alsrac.exe
BENCH=$PWD/_build/default/bench/main.exe

# A layer bench in smoke mode, writing its JSON into $out; a failed check
# exits non-zero.
bench() { (cd "$out" && ALSRAC_BENCH_SMOKE=1 "$BENCH" "$1"); }

# The determinism contract of DESIGN.md §14: `alsrac approx CIRCUIT ARGS`
# writes the same bytes at -j 1 and at -j 4.
jobs_identical() {
  local c=$1
  shift
  "$BIN" approx "$c" "$@" -j 1 -o "$out/$c-j1.aag"
  "$BIN" approx "$c" "$@" -j 4 -o "$out/$c-j4.aag"
  cmp "$out/$c-j1.aag" "$out/$c-j4.aag"
}

case $entry in
  test) dune runtest --force ;;

  # The parallel determinism tests drive every pool call site with a 4-lane
  # pool; results must be bit-identical to the sequential entry.
  test-jobs4) ALSRAC_TEST_JOBS=4 dune runtest --force ;;

  # Errest.Batch candidates/s on c880 ER, c1908 MRED and mtp8 NMED.
  scoring) bench scoring ;;

  core)
    bench core
    jobs_identical ctrl -m er -t 0.03 --eval-rounds 1024
    jobs_identical cavlc -m er -t 0.03 --eval-rounds 1024
    # The end-to-end benchmark's ER and MRED settings, on circuits whose LAC
    # generation visits many divisor sets per target.  rca32 accepts nothing
    # for 90 iterations, so the candidate memo answers most of its scoring.
    jobs_identical c880 -m er -t 0.01
    jobs_identical adder -m mred -t 0.0019531
    jobs_identical rca32 -m er -t 0.01
    jobs_identical log2 -m mred -t 0.0019531
    # Kill -9 and resume: a journaled MRED run, SIGKILLed wherever its first
    # second lands and resumed without -m, writes the uninterrupted run's
    # bytes and reports the journal's metric.
    "$BIN" approx adder -m mred -t 0.0019531 -o "$out/adder_full.aag"
    timeout -s KILL 1 "$BIN" approx adder -m mred -t 0.0019531 \
      --journal "$out/adder_journal" -o "$out/adder_killed.aag" || true
    "$BIN" approx adder --resume "$out/adder_journal" \
      -o "$out/adder_resumed.aag" >"$out/adder_resumed.txt"
    cat "$out/adder_resumed.txt"
    cmp "$out/adder_full.aag" "$out/adder_resumed.aag"
    grep -q "sampled mred" "$out/adder_resumed.txt"
    ;;

  # One short run of each BENCHMARK.json workload.  The checks outside
  # timing (interface, Aig.Check, AIGER round trip, error recheck, CEC on
  # opt_resub) must count no failed circuit; each row also compares its
  # output's MD5 with e2ebench/hashes.txt ("behaviour changed").
  e2e)
    for w in approx opt_resub; do
      python3 e2ebench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 |
        tee "$out/$w.txt"
      tail -n 1 "$out/$w.txt" | python3 -c \
        'import json, sys; sys.exit(1 if json.load(sys.stdin)["failed"] > 0 else 0)'
    done
    ;;

  # The verification property suite over the seed's disjoint circuit
  # population; failing cases are shrunk and dumped as AIGER files.
  prop-*)
    ALSRAC_PROP_SEED=${entry#prop-} ALSRAC_PROP_DUMP=$out/prop_failures \
      dune exec -- test/test_verify.exe
    ;;

  # The daemon through the real CLI: load, approximate, query, SIGKILL and
  # restart; the persisted session must come back and keep answering.  Then
  # the warm-vs-cold bench: a resident query at least 5x faster at P50.
  serve)
    SOCK=/tmp/alsrac-ci-$$.sock
    STATE=$out/state
    "$BIN" serve --socket "$SOCK" --state-dir "$STATE" --deadline 120 &
    SERVE_PID=$!
    trap 'kill -9 $SERVE_PID 2>/dev/null || true; rm -f "$SOCK"' EXIT
    "$BIN" client ping --socket "$SOCK"
    "$BIN" client load smoke cavlc --socket "$SOCK"
    "$BIN" client approx smoke -m er -t 0.05 --eval-rounds 1024 --socket "$SOCK"
    "$BIN" client metrics smoke -m er --socket "$SOCK"
    "$BIN" client cec smoke --socket "$SOCK"
    "$BIN" client status --socket "$SOCK"
    kill -9 $SERVE_PID
    wait $SERVE_PID || true
    rm -f "$SOCK"
    "$BIN" serve --socket "$SOCK" --state-dir "$STATE" --deadline 120 &
    SERVE_PID=$!
    "$BIN" client metrics smoke -m er --socket "$SOCK"
    "$BIN" client get smoke -o "$out/smoke.aag" --socket "$SOCK"
    test -s "$out/smoke.aag"
    "$BIN" client shutdown --socket "$SOCK"
    wait $SERVE_PID
    bench serve
    ;;

  # A mini corpus sweep in one process and split over two shard processes
  # sharing a directory: byte-identical Pareto fronts.  Then the explore
  # bench: greedy sweeps at jobs=1 and jobs=2 with byte-identical fronts.
  explore)
    ARGS="--benchmarks ctrl,int2float --ladder er=0.01,0.05 --eval-rounds 512 --max-iters 8"
    "$BIN" explore --dir "$out/explore_ref" $ARGS
    "$BIN" explore --dir "$out/explore_sharded" $ARGS --shards 2 --shard-id 0 &
    SHARD0=$!
    "$BIN" explore --dir "$out/explore_sharded" $ARGS --shards 2 --shard-id 1
    wait $SHARD0
    diff -r "$out/explore_ref/fronts" "$out/explore_sharded/fronts"
    bench explore
    ;;

  # compress2 with and without exact resub: never larger, a strict AND win
  # on at least half the fixtures, every result CEC-proven.  Then the -j 1
  # vs -j 4 contract with exact resub, including the end-to-end
  # benchmark's settings, so both users of the shared divisor walk run
  # under a 4-lane pool.
  resub)
    bench resub
    jobs_identical ctrl -m er -t 0.03 --eval-rounds 1024 --exact-resub
    jobs_identical cavlc -m er -t 0.03 --eval-rounds 1024 --exact-resub
    jobs_identical c880 -m er -t 0.01 --exact-resub
    jobs_identical log2 -m mred -t 0.0019531 --exact-resub
    ;;

  # ctrl through every cell of the metric x distribution matrix (DESIGN.md
  # §13), each output re-measured exactly.  Max-metric runs under unif
  # carry the miter certificate, never a Hoeffding bound.  Then the maxerr
  # bench: every miter closes, no certified maximum below the sampled one.
  matrix)
    # 12 weighted rows over ctrl's 7 PIs, non-uniform on purpose.
    for i in $(seq 0 11); do
      v=$((i * 11 % 128))
      bits=""
      for b in 0 1 2 3 4 5 6; do bits="$bits$(((v >> b) & 1))"; done
      echo "$bits $((1 + i % 4)).0"
    done >"$out/ctrl.pat"
    cat "$out/ctrl.pat"
    for cell in er=0.05 med=1.0 nmed=0.05 mred=0.05 mse=2.0 \
      mhd=1.0 nmhd=0.05 maxed=3.0 maxhd=2.0 maxred=0.5; do
      m=${cell%%=*}
      t=${cell#*=}
      "$BIN" approx ctrl -m "$m" -t "$t" --eval-rounds 512 \
        -o "$out/ctrl_${m}_unif.aag" >"$out/out_unif_$m.txt"
      cat "$out/out_unif_$m.txt"
      "$BIN" eval ctrl "$out/ctrl_${m}_unif.aag" -m "$m"
      "$BIN" approx ctrl -m "$m" -t "$t" --eval-rounds 512 \
        --distr "$out/ctrl.pat" -o "$out/ctrl_${m}_enum.aag"
      "$BIN" eval ctrl "$out/ctrl_${m}_enum.aag" -m "$m" --distr "$out/ctrl.pat"
    done
    for m in maxed maxhd maxred; do
      if grep -i hoeffding "$out/out_unif_$m.txt"; then exit 1; fi
      grep -q "max-miter" "$out/out_unif_$m.txt"
    done
    # The worst-case sugar spelling of the same constraint.
    "$BIN" approx ctrl --max-error 3 --eval-rounds 512
    bench maxerr
    ;;

  *)
    echo "unknown CI entry: $entry" >&2
    exit 2
    ;;
esac
