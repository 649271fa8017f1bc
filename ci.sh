#!/bin/sh
# CI entry point, structured as named stages:
#
#   build     - dune build @all
#   test      - test suites (twice: as-is and with XNF_CHECK validators
#               forced on) + the sys.*/slow-query observability gate +
#               the shared-database example smoke + the shell \stats smoke
#   lint      - statement-corpus lint + advisor pass + PLAN300 gate
#   fuzz      - differential fuzzing, corpus replay, mutation smoke
#   crash     - crash-point oracle, durability defect smoke, kill -9 gate
#   converge  - plan-convergence corpus (equivalent formulations must
#               load identical instances and cost-pick identical
#               strategies) + the stats-drop mis-pick self-check
#   bench     - bench smoke + bench/suite allocation ceilings + baseline
#               gate vs BENCH_seed.json
#
# `./ci.sh` runs every stage in order; `./ci.sh fuzz bench` runs a
# subset (same as `make ci-fuzz ci-bench`). Exits non-zero on the first
# failure; per-stage wall-clock timings print at the end. Equivalent to
# `make check`.
set -eu

cd "$(dirname "$0")"

stage_build() {
  echo "== build =="
  dune build @all
}

stage_test() {
  echo "== test =="
  dune runtest

  echo "== test (pipeline validators installed) =="
  XNF_CHECK=1 dune runtest --force

  echo "== observability gate (sys.* + slow-query log) =="
  # scripted workload: a deliberately slow non-equi self-join must land in
  # sys.slow_queries and join back to its sys.statements aggregate through
  # plain SQL over the sys.* views; re-running the same workload with an
  # enormous threshold must leave the slow log empty, proving the gate
  # observes the threshold rather than an always-on log
  gen_obs_script() {
    echo "CREATE TABLE nums (n INT)"
    seq 1 1500 | awk 'BEGIN{printf "INSERT INTO nums VALUES "} {printf "%s(%d)", (NR>1?", ":""), $1} END{print ""}'
    echo "\\slowlog $1"
    echo "SELECT count(*) FROM nums a, nums b WHERE a.n < b.n"
    echo "SELECT count(*) FROM nums WHERE n = 42"
    echo "\\slowlog off"
    echo "SELECT count(*) AS slow_count FROM sys.slow_queries"
    echo "SELECT count(*) AS joined FROM sys.statements s, sys.slow_queries q WHERE s.fingerprint = q.fingerprint"
  }
  OBS_SCRIPT=/tmp/obs_gate_$$.sql
  OBS_OUT=/tmp/obs_gate_$$.out
  gen_obs_script 40 > "$OBS_SCRIPT"
  dune exec bin/xnf_shell.exe -- -f "$OBS_SCRIPT" > "$OBS_OUT"
  slow_count=$(grep -A2 '^slow_count$' "$OBS_OUT" | tail -1)
  joined=$(grep -A2 '^joined$' "$OBS_OUT" | tail -1)
  if [ "$slow_count" != "1" ]; then
    echo "obs gate: expected 1 slow query, got '$slow_count'"; cat "$OBS_OUT"; exit 1
  fi
  if [ "$joined" != "1" ]; then
    echo "obs gate: slow query did not join back to sys.statements (got '$joined')"; cat "$OBS_OUT"; exit 1
  fi
  gen_obs_script 100000 > "$OBS_SCRIPT"
  dune exec bin/xnf_shell.exe -- -f "$OBS_SCRIPT" > "$OBS_OUT"
  slow_count=$(grep -A2 '^slow_count$' "$OBS_OUT" | tail -1)
  if [ "$slow_count" != "0" ]; then
    echo "obs gate (inverted threshold): expected empty slow log, got '$slow_count'"; cat "$OBS_OUT"; exit 1
  fi
  rm -f "$OBS_SCRIPT" "$OBS_OUT"

  echo "== example smoke (shared database) =="
  # the shared-database example must show the cached CO reloading after
  # the SQL application's insert, and the optimistic-validation conflict
  # that tells the CO application to refetch
  EX_OUT=/tmp/shared_db_$$.out
  dune exec examples/shared_database.exe > "$EX_OUT"
  if ! grep -q 'now sees 4 employees (reloads: 1)' "$EX_OUT"; then
    echo "example smoke: no reload after the SQL insert"; cat "$EX_OUT"; exit 1
  fi
  if ! grep -q 'told to refetch' "$EX_OUT"; then
    echo "example smoke: write/write conflict not reported"; cat "$EX_OUT"; exit 1
  fi
  rm -f "$EX_OUT"

  echo "== shell smoke (\\stats) =="
  # \stats reports the xnf.translate.* counter deltas since the last
  # \fetch: fetching a demo view must show a nonzero query count
  SH_SCRIPT=/tmp/shell_stats_$$.sql
  SH_OUT=/tmp/shell_stats_$$.out
  printf '%s\n' '\fetch OUT OF ALL-DEPS TAKE *' '\stats' > "$SH_SCRIPT"
  dune exec bin/xnf_shell.exe -- --demo -f "$SH_SCRIPT" > "$SH_OUT"
  if ! grep -Eq 'queries issued: [1-9]' "$SH_OUT"; then
    echo "shell smoke: \\stats shows no translation queries after \\fetch"; cat "$SH_OUT"; exit 1
  fi
  rm -f "$SH_SCRIPT" "$SH_OUT"
}

stage_lint() {
  echo "== lint corpus =="
  dune exec bin/xnf_shell.exe -- --demo --lint examples/corpus.xnf

  echo "== advise corpus =="
  # every corpus query also flows through the static plan advisor; any
  # error-severity advisory (or a statement the advisor cannot compile)
  # exits non-zero. PLAN3xx warnings and infos are expected and pass.
  dune exec bin/xnf_shell.exe -- --demo --advise examples/corpus.xnf > /dev/null

  echo "== advisory gate (PLAN300 missing index) =="
  # a 2000-row child probed from a 60-row frontier with no index on the
  # join column must draw a PLAN300 missing-index advisory; rerunning the
  # identical workload with the suggested index created must clear it,
  # proving the advisory tracks the catalog rather than always firing
  gen_advise_script() {
    echo "CREATE TABLE adv_dept (dno INTEGER PRIMARY KEY, dname VARCHAR)"
    seq 1 60 | awk 'BEGIN{printf "INSERT INTO adv_dept VALUES "} {printf "%s(%d, '\''d%d'\'')", (NR>1?", ":""), $1, $1} END{print ""}'
    echo "CREATE TABLE adv_emp (eno INTEGER PRIMARY KEY, edno INTEGER)"
    seq 1 2000 | awk 'BEGIN{printf "INSERT INTO adv_emp VALUES "} {printf "%s(%d, %d)", (NR>1?", ":""), $1, ($1 % 60) + 1} END{print ""}'
    echo "ANALYZE"
    if [ "$1" = "indexed" ]; then echo "CREATE INDEX idx_adv_emp_edno ON adv_emp (edno)"; fi
    echo "OUT OF d AS ADV_DEPT, e AS ADV_EMP, works AS (RELATE d, e WHERE d.dno = e.edno) TAKE *"
  }
  ADV_SCRIPT=/tmp/advise_gate_$$.xnf
  ADV_OUT=/tmp/advise_gate_$$.out
  gen_advise_script plain > "$ADV_SCRIPT"
  dune exec bin/xnf_shell.exe -- --advise "$ADV_SCRIPT" > "$ADV_OUT"
  if ! grep -q 'PLAN300' "$ADV_OUT"; then
    echo "advisory gate: expected a PLAN300 missing-index advisory"; cat "$ADV_OUT"; exit 1
  fi
  gen_advise_script indexed > "$ADV_SCRIPT"
  dune exec bin/xnf_shell.exe -- --advise "$ADV_SCRIPT" > "$ADV_OUT"
  if grep -q 'PLAN300' "$ADV_OUT"; then
    echo "advisory gate: PLAN300 must clear once the suggested index exists"; cat "$ADV_OUT"; exit 1
  fi
  rm -f "$ADV_SCRIPT" "$ADV_OUT"
}

stage_fuzz() {
  echo "== fuzz (differential, seed 42) =="
  # short budget by default; raise with FUZZ_ITERS for nightly-style runs.
  # --advise folds the plan-advisor purity oracle into every case: the
  # advisor must never raise, must report identically on a cold compile
  # vs. a plan-cache hit, and must not perturb caches or query results.
  # The adaptive differential inside each case re-runs the fetch with a
  # hair-trigger switching threshold and cross-checks the instance.
  dune exec bin/xnf_fuzz.exe -- --seed 42 --iters "${FUZZ_ITERS:-500}" --advise --quiet

  echo "== fuzz corpus replay =="
  dune exec bin/xnf_fuzz.exe -- --replay-dir examples/fuzz-corpus

  echo "== fuzz mutation smoke =="
  # inject a defect into every delivered instance; xnf_fuzz exits non-zero
  # unless the harness catches every injected defect
  dune exec bin/xnf_fuzz.exe -- --seed 42 --iters 25 --mutate drop-conn --no-shrink --quiet
  dune exec bin/xnf_fuzz.exe -- --seed 42 --iters 25 --mutate drop-tuple --no-shrink --quiet
  # dict-swap corrupts one encoded cell to a different valid dictionary id;
  # the decoded comparators must catch every injection, proving the
  # encoded hot path and the decoded oracles are compared cell-exactly
  dune exec bin/xnf_fuzz.exe -- --seed 42 --iters 25 --mutate dict-swap --no-shrink --quiet
}

stage_crash() {
  echo "== crash-point oracle (seeded) =="
  # run a seeded DDL/DML/fetch workload against a durable directory, crash
  # it by truncating the WAL at every record boundary (plus torn mid-frame
  # cuts), recover each truncation, and diff the recovered state against
  # the committed prefix it must equal; any divergence exits non-zero.
  # Raise CRASH_ITERS for nightly-style budgets.
  dune exec bin/xnf_fuzz.exe -- --crash --seed 42 --iters "${CRASH_ITERS:-120}" --quiet

  echo "== durability defect smoke =="
  # inject each durability defect — skipped fsync, corrupted CRC, dropped
  # checkpoint — and require the crash oracle to catch all three; a
  # recovery path that silently tolerates any of them fails the build
  dune exec bin/xnf_fuzz.exe -- --crash-defect all --seed 5 --iters 60 --quiet

  echo "== durability gate (kill -9 + restart with --data) =="
  # a live shell writes through --data, checkpoints mid-way, keeps
  # writing, and is killed with SIGKILL once its final SELECT has printed;
  # a restarted shell on the same directory must recover the identical
  # rows, and an explicit \recover must leave them unchanged
  DUR_DIR=/tmp/dur_gate_$$
  DUR_FIFO=/tmp/dur_fifo_$$
  DUR_LIVE=/tmp/dur_live_$$.out
  DUR_REST=/tmp/dur_rest_$$.out
  DUR_SCRIPT=/tmp/dur_script_$$.sql
  rm -rf "$DUR_DIR" "$DUR_FIFO"
  mkfifo "$DUR_FIFO"
  ./_build/default/bin/xnf_shell.exe --data "$DUR_DIR" < "$DUR_FIFO" > "$DUR_LIVE" 2>&1 &
  DUR_PID=$!
  {
    echo "CREATE TABLE kv (k INTEGER PRIMARY KEY, v VARCHAR)"
    echo "INSERT INTO kv VALUES (1, 'a'), (2, 'b')"
    echo "\\checkpoint"
    echo "INSERT INTO kv VALUES (3, 'c')"
    echo "UPDATE kv SET v = 'z' WHERE k = 1"
    echo "SELECT k, v FROM kv ORDER BY k"
    sleep 30 # hold stdin open so the shell only dies by SIGKILL
  } > "$DUR_FIFO" &
  DUR_FEEDER=$!
  i=0
  until grep -q '(3 rows)' "$DUR_LIVE" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "durability gate: shell never reached the SELECT"; cat "$DUR_LIVE"; exit 1
    fi
    sleep 0.1
  done
  kill -9 "$DUR_PID"
  kill "$DUR_FEEDER" 2>/dev/null || true
  wait "$DUR_PID" 2>/dev/null || true
  wait "$DUR_FEEDER" 2>/dev/null || true
  { echo "\\recover"; echo "SELECT k, v FROM kv ORDER BY k"; } > "$DUR_SCRIPT"
  ./_build/default/bin/xnf_shell.exe --data "$DUR_DIR" -f "$DUR_SCRIPT" > "$DUR_REST" 2>&1
  live_rows=$(grep -E '^[0-9]+ \| ' "$DUR_LIVE")
  rest_rows=$(grep -E '^[0-9]+ \| ' "$DUR_REST")
  if [ -z "$rest_rows" ] || [ "$live_rows" != "$rest_rows" ]; then
    echo "durability gate: restarted state differs from the killed session"
    echo "--- killed session:"; cat "$DUR_LIVE"
    echo "--- restart:"; cat "$DUR_REST"
    exit 1
  fi
  rm -rf "$DUR_DIR" "$DUR_FIFO" "$DUR_LIVE" "$DUR_REST" "$DUR_SCRIPT"
}

stage_converge() {
  echo "== plan-convergence gate (examples/converge) =="
  # every group of semantically-equivalent formulations must load the
  # identical instance AND cost-pick the identical per-edge strategy set
  # (fresh ANALYZE stats, no force), pinned by each file's expect line
  dune exec bin/xnf_fuzz.exe -- --converge examples/converge

  echo "== convergence self-check (stats-drop mis-pick) =="
  # re-run the corpus with ANALYZE statements dropped: the planner falls
  # back to static rules, so the gate must fail — proving it can detect
  # a mis-pick rather than vacuously passing
  dune exec bin/xnf_fuzz.exe -- --converge-defect stats-drop > /dev/null
}

# suite_gate WORKLOAD OPS CEILING PROBED ROUNDS: fail unless the
# workload's traced seed-1 run allocates at most CEILING bytes per op and
# its fixpoint probes exactly PROBED tuples in exactly ROUNDS rounds per
# fetch
suite_gate() {
  out=$(./_build/default/bench/suite/xnf_bench.exe --workload "$1" --seed 1 \
    --ops "$2" --trace 1)
  metric() {
    echo "$out" | sed -n "s/.*\"$1\": {\"value\": \([0-9.e+-]*\),.*/\1/p"
  }
  alloc=$(metric 'gc\.alloc_bytes_per_op')
  probed=$(metric 'translate\.tuples_probed_per_fetch')
  rounds=$(metric 'translate\.rounds_per_fetch')
  if [ -z "$alloc" ] || [ -z "$probed" ] || [ -z "$rounds" ]; then
    echo "suite gate: $1 did not report gc.alloc_bytes_per_op, translate.tuples_probed_per_fetch and translate.rounds_per_fetch"
    exit 1
  fi
  echo "$1 gc.alloc_bytes_per_op = $alloc B (ceiling $3 B)"
  if ! awk -v v="$alloc" -v c="$3" 'BEGIN { exit !(v + 0 <= c + 0) }'; then
    echo "alloc gate: $1 ceiling exceeded"
    exit 1
  fi
  echo "$1 translate.tuples_probed_per_fetch = $probed (expected $4)"
  echo "$1 translate.rounds_per_fetch = $rounds (expected $5)"
  if ! awk -v p="$probed" -v r="$rounds" -v ep="$4" -v er="$5" \
    'BEGIN { exit !(p + 0 == ep + 0 && r + 0 == er + 0) }'; then
    echo "work gate: $1 fixpoint work changed"
    exit 1
  fi
}

stage_bench() {
  echo "== bench smoke =="
  dune exec bench/main.exe -- --list

  echo "== allocation ceilings and exact work counters (bench/suite) =="
  # bytes allocated per op, a work counter that repeats to within 1 B
  # across runs on any host, and the fixpoint's tuples probed and rounds
  # per fetch, which repeat exactly: a change to semi-naive evaluation
  # (re-probing old tuples, extra rounds) moves them.
  # oo1_closure: 12 MB sits between the generic root-edge pick (26.3 MB, a
  # temp copy of the whole connection table per fetch) and the hash pick
  # over one shared build (7.4 MB).
  # design_ws: 400 kB sits between full-scan PK UPDATE victims and roots
  # (1.83 MB) and index-driven ones (0.17 MB).
  # oo1_nav: 1.25 MB sits between full-scan point roots (1.54 MB) and
  # primary-key probes (1.00 MB).
  dune build bench/suite/xnf_bench.exe
  suite_gate oo1_closure 130 12000000 18764.655172413793 35.03448275862069
  suite_gate design_ws 500 400000 17 3
  suite_gate oo1_nav 500 1250000 1181.3239436619717 6.577464788732394

  echo "== bench gate (E4+E11+E12+E13 vs BENCH_seed.json) =="
  # re-run the paged-storage, repeated-fetch, batch-edge and cost-pick
  # experiments and diff their bench.* metrics against the committed
  # baseline: counters exact, timing gauges within BENCH_TOLERANCE
  # (relative; generous because CI machines vary), and absolute limits
  # regardless of the baseline: the warm plan-cache speedup >= 2x, batch
  # hash probing >= 3x over the SQL route (the paper's rewrite into
  # engine-planned joins) on the 100k-row deep schema, CO-clustering >= 2x
  # fewer page faults than table clustering, the cost-picked access path
  # >= 1.5x over the forced-worst strategy on both skewed E13 chains, and
  # warm hash probing capped at 684 allocated bytes per frontier probe
  # (5x under the pre-dictionary 3422)
  dune exec bench/main.exe -- --only E4 --only E11 --only E12 --only E13 --json /tmp/bench_fresh_$$.json > /dev/null
  dune exec bin/bench_compare.exe -- BENCH_seed.json /tmp/bench_fresh_$$.json \
    --tolerance "${BENCH_TOLERANCE:-0.5}" --min bench.e11.warm_speedup=2 \
    --min bench.e12.deep_speedup=3 --min bench.e4.fault_ratio=2 \
    --min bench.e13.cost_pick_speedup=1.5 \
    --max bench.e12.alloc_bytes_per_probe=684
  rm -f /tmp/bench_fresh_$$.json
}

ALL_STAGES="build test lint fuzz crash converge bench"

usage() {
  echo "usage: ./ci.sh [stage ...]   stages: $ALL_STAGES (default: all)" >&2
  exit 2
}

if [ "$#" -eq 0 ]; then
  STAGES=$ALL_STAGES
else
  STAGES="$*"
  for s in $STAGES; do
    case " $ALL_STAGES " in
      *" $s "*) ;;
      *) echo "ci.sh: unknown stage '$s'" >&2; usage ;;
    esac
  done
fi

TIMING_FILE=/tmp/ci_timing_$$
: > "$TIMING_FILE"
trap 'rm -f "$TIMING_FILE"' EXIT

for s in $STAGES; do
  start=$(date +%s)
  "stage_$s"
  end=$(date +%s)
  printf '  %-10s %4ds\n' "$s" "$((end - start))" >> "$TIMING_FILE"
done

echo
echo "== stage timing =="
cat "$TIMING_FILE"
echo "ci: all stages passed ($(echo "$STAGES" | wc -w | tr -d ' ') of 7)"
