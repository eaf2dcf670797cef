#!/usr/bin/env bash
# CI gate for the ADVM tree.
#
#   1. tier-1: the exact ROADMAP verify command (configure, build, ctest).
#   2. hygiene: a -Werror configure preset must compile warning-clean.
#   3. perf:   build the bench harnesses and record BENCH_*.json under
#              bench/records/ — a *committed* directory, unlike build/ —
#              so the perf trajectory of consecutive revisions actually
#              survives in git history (skippable with ADVM_CI_SKIP_BENCH=1
#              for quick gates).
#   4. perfbench: 5 s traced healthy and port laps of the repository
#              benchmark must report "correct": true.
#
# Run from anywhere: the script cds to the repo root first.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1 verify"
cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
cd ..

echo "==> JSON report contract (advm matrix --format json)"
rm -rf build/json-contract-env
./build/tools/advm init build/json-contract-env --tests 2 > /dev/null
./build/tools/advm matrix build/json-contract-env \
  --derivatives SC88-A,SC88-B --platforms golden-model \
  --format json > build/json-contract.json
python3 - build/json-contract.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] is True, doc
assert doc["verb"] == "matrix", doc["verb"]
assert doc["backend"] == "thread", doc["backend"]
assert doc["shards"] == 1, doc["shards"]
assert doc["all_passed"] is True, "matrix not green"
assert len(doc["cells"]) == 2, len(doc["cells"])
assert len(doc["rollup"]) == len(doc["cells"])
for cell in doc["cells"]:
    for key in ("derivative", "platform", "records", "passed", "total",
                "build_failures", "all_passed", "outcome_digest", "cache"):
        assert key in cell, "missing key " + key
    assert cell["total"] == len(cell["records"]) > 0
    assert len(cell["outcome_digest"]) == 16
    for key in ("hits", "misses", "bytes", "evictions", "persistent_hits"):
        assert key in cell["cache"], "missing cache key " + key
for entry in doc["rollup"]:
    for key in ("derivative", "platform", "passed", "total",
                "build_failures", "outcome_digest"):
        assert key in entry, "missing rollup key " + key
print("json contract ok: %d cells, %d records" %
      (len(doc["cells"]), sum(c["total"] for c in doc["cells"])))
PY

echo "==> lint gate (advm lint static analyzer + --lint pre-run gate)"
# The generated corpus must be lint-clean (the analyzer's zero-false-
# positive contract), a seeded defect must surface as a typed finding and
# trip the --lint gate, and the gated run on the clean tree must pass.
./build/tools/advm lint build/json-contract-env
./build/tools/advm run build/json-contract-env --lint > /dev/null
rm -rf build/lint-env
cp -r build/json-contract-env build/lint-env
printf '.INCLUDE Globals.inc\n_main:\n MOV d1, d3\n CALL Base_Report_Pass\n' \
  > build/lint-env/MEM_MODULE/TEST_MEMORY_000/test.asm
# Dead code seeded into a shared library is scoped out of every cell that
# links it: the report must still hold only the one test finding.
printf '\nLint_Dead_Code:\n MOV d1, 1\n MOV d1, 2\n RETURN\n' \
  >> build/lint-env/MEM_MODULE/Abstraction_Layer/base_functions.asm
if ./build/tools/advm lint build/lint-env --format json > build/lint.json; then
  echo "lint exited 0 on a seeded defect" >&2
  exit 1
fi
if ./build/tools/advm run build/lint-env --lint > /dev/null; then
  echo "--lint gate let a dirty tree run" >&2
  exit 1
fi
python3 - build/lint.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] is True and doc["verb"] == "lint", doc
assert doc["clean"] is False and doc["count"] == 1, doc
assert doc["by_code"] == {"advm.lint-undef-reg": 1}, doc["by_code"]
f = doc["findings"][0]
for key in ("code", "environment", "test", "file", "address", "symbol",
            "detail"):
    assert key in f, "missing finding key " + key
assert f["environment"] == "MEM_MODULE" and f["symbol"] == "_main", f
assert f["file"] == "MEM_MODULE/TEST_MEMORY_000/test.asm", f
print("lint gate ok: clean corpus clean, seeded defect caught as %s, "
      "library defect scoped out" % f["code"])
PY

echo "==> shard-determinism gate (thread vs pooled process backend on the e10 cube)"
rm -rf build/shard-env build/shard-cache
./build/tools/advm init build/shard-env --tests 2 > /dev/null
SHARD_AXES="--derivatives SC88-A,SC88-B,SC88-C,SC88-D --platforms golden-model,hdl-rtl"
# Exit codes are informational here (un-ported derivatives legitimately
# fail their cells); the gate is that both backends fail *identically*.
./build/tools/advm matrix build/shard-env $SHARD_AXES \
  --format json > build/shard-thread.json || true
./build/tools/advm matrix build/shard-env $SHARD_AXES \
  --backend process --shards 4 --jobs 8 --cache-dir build/shard-cache \
  --format json > build/shard-process.json || true
./build/tools/advm matrix build/shard-env $SHARD_AXES \
  --backend process --shards 4 --jobs 8 --cache-dir build/shard-cache \
  --format json > build/shard-process-warm.json || true
# Fourth lap: the cost model is warm now, so force every cell under the
# batching threshold and prove the multi-cell request path merges to the
# same bytes as everything above.
./build/tools/advm matrix build/shard-env $SHARD_AXES \
  --backend process --shards 4 --jobs 8 --cache-dir build/shard-cache \
  --batch-threshold 1000000 \
  --format json > build/shard-process-batched.json || true
python3 - build/shard-thread.json build/shard-process.json \
  build/shard-process-warm.json build/shard-process-batched.json <<'PY'
import json, sys
thread, process, warm, batched = (json.load(open(p)) for p in sys.argv[1:5])
assert process["backend"] == "process" and process["shards"] == 4, process
roll_thread = json.dumps(thread["rollup"], sort_keys=True)
roll_process = json.dumps(process["rollup"], sort_keys=True)
roll_warm = json.dumps(warm["rollup"], sort_keys=True)
roll_batched = json.dumps(batched["rollup"], sort_keys=True)
assert roll_thread == roll_process, "thread vs process roll-up mismatch"
assert roll_thread == roll_warm, "warm-cache roll-up mismatch"
assert roll_thread == roll_batched, "batched-request roll-up mismatch"
digests = [c["outcome_digest"] for c in thread["rollup"]]
assert digests == [c["outcome_digest"] for c in process["rollup"]]
hits = sum(c["cache"]["persistent_hits"] for c in warm["cells"])
assert hits > 0, "second cold-process run had no persistent-cache hits"
# Pooled dispatch: 4 resident workers serve the 8-cell cube — every
# worker sees at least one request, the 8 requests amortize the 4
# spawns (reuse > 0), and --jobs 8 is divided 2-per-worker, never 8x4.
workers = process["workers"]
assert len(workers) == 4, workers
assert all(w["requests"] >= 1 for w in workers), workers
assert sum(w["cells"] for w in workers) == len(process["cells"]), workers
assert process["worker_reuse"] > 0, process["worker_reuse"]
assert process["jobs_per_worker"] == 2, process["jobs_per_worker"]
assert "workers" not in thread, "thread backend must not report a pool"
# Cost model: the first process lap runs against an empty cache dir, so
# dispatch seeds from test-count estimates and every cell's measured
# wall-clock gets recorded; the warm lap must then seed from those
# measurements. Both counters are process-backend-only.
cold_cm = process["cost_model"]
assert cold_cm["source"] == "estimate", cold_cm
assert cold_cm["seeded_cells"] == 0, cold_cm
assert cold_cm["recorded"] == len(process["cells"]), cold_cm
warm_cm = warm["cost_model"]
assert warm_cm["source"] == "measured", warm_cm
assert warm_cm["seeded_cells"] == len(warm["cells"]), warm_cm
assert "cost_model" not in thread, "thread backend must not report a cost model"
assert "batched_requests" not in thread, thread.keys()
# Forced batching: with every estimate under the threshold, tiny cells
# coalesce into multi-cell requests — fewer round trips than cells, at
# least one batched request, and (asserted above) identical roll-up bytes.
assert batched["cost_model"]["source"] == "measured", batched["cost_model"]
assert batched["batched_requests"] > 0, batched["batched_requests"]
batched_reqs = sum(w["requests"] for w in batched["workers"])
assert batched_reqs < len(batched["cells"]), (batched_reqs, len(batched["cells"]))
print("shard determinism ok: %d cells byte-identical across backends, "
      "%d persistent-cache hits on the warm rerun, worker reuse %d, "
      "warm cost model seeded %d cells, %d batched request(s)" %
      (len(digests), hits, process["worker_reuse"],
       warm_cm["seeded_cells"], batched["batched_requests"]))
PY

echo "==> chaos gate (fault-injected process backend vs the thread reference)"
# Reuses the e10 cube from the shard gate above. Faults are injected with
# the hidden --fault-plan serve-loop seam; the gate is that a lap that
# loses workers still produces the same roll-up bytes as the undisturbed
# thread lap — recovery must be invisible in the report, visible only in
# the fault counters.
#
# Lap 1: worker 0 is SIGKILLed on its first request, no respawn budget —
# its cells must requeue onto the survivors.
./build/tools/advm matrix build/shard-env $SHARD_AXES \
  --backend process --shards 4 --jobs 8 --cache-dir build/shard-cache \
  --fault-plan "0:crash@1" --max-respawns 0 --request-timeout-ms 120000 \
  --format json > build/chaos-crash.json || true
# Lap 2: every incarnation dies on its first request and nothing may
# respawn — the orchestrator must degrade to the in-process backend.
./build/tools/advm matrix build/shard-env $SHARD_AXES \
  --backend process --shards 4 --jobs 8 --cache-dir build/shard-cache \
  --fault-plan "*:crash@1" --max-respawns 0 \
  --format json > build/chaos-degraded.json || true
python3 - build/shard-thread.json build/chaos-crash.json \
  build/chaos-degraded.json <<'PY'
import json, sys
thread, crash, degraded = (json.load(open(p)) for p in sys.argv[1:4])
roll_thread = json.dumps(thread["rollup"], sort_keys=True)
assert roll_thread == json.dumps(crash["rollup"], sort_keys=True), \
    "crash-lap roll-up diverged from the thread reference"
assert roll_thread == json.dumps(degraded["rollup"], sort_keys=True), \
    "degraded-lap roll-up diverged from the thread reference"
fault = crash["fault"]
assert fault["retries"] >= 1, fault
assert fault["requeued_cells"] >= 1, fault
assert fault["respawns"] == 0, fault
assert fault["quarantined_cells"] == 0, fault
assert fault["degraded"] is False, fault
assert crash["request_timeout_ms"] == 120000, crash["request_timeout_ms"]
assert degraded["fault"]["degraded"] is True, degraded["fault"]
assert degraded["fault"]["quarantined_cells"] == 0, degraded["fault"]
assert "fault" not in thread, "thread backend must not report fault stats"
print("chaos ok: crash lap requeued %d cell(s) over %d retri(es), "
      "all-dead lap degraded cleanly, roll-ups byte-identical" %
      (fault["requeued_cells"], fault["retries"]))
PY

echo "==> quarantine gate (a poisoned cell is a typed outcome, not a failed run)"
# A green 2-cell cube where cell 1 kills every worker that touches it:
# the run must finish with a non-zero exit (a quarantined cell is a
# failure), exactly one poisoned cell, and the other cell intact.
if ./build/tools/advm matrix build/json-contract-env \
  --derivatives SC88-A,SC88-B --platforms golden-model \
  --backend process --shards 2 \
  --fault-plan "*:crash@cell=1" \
  --format json > build/chaos-poison.json; then
  echo "quarantine lap exited 0 despite a poisoned cell" >&2
  exit 1
fi
python3 - build/chaos-poison.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] is True, "the run itself must complete"
assert doc["all_passed"] is False, "a poisoned cell cannot count as green"
fault = doc["fault"]
assert fault["quarantined_cells"] == 1, fault
poisoned = [c for c in doc["cells"]
            if any(r["test"] == "advm.exec-cell-poisoned"
                   for r in c["records"])]
assert len(poisoned) == 1, "expected exactly one poisoned cell"
assert poisoned[0]["derivative"] == "SC88-B", poisoned[0]["derivative"]
healthy = [c for c in doc["cells"] if c is not poisoned[0]]
assert all(c["all_passed"] for c in healthy), "healthy cells were damaged"
print("quarantine ok: cell (%s, %s) poisoned after %d respawn(s), "
      "neighbours green" % (poisoned[0]["derivative"],
                            poisoned[0]["platform"], fault["respawns"]))
PY

echo "==> serve daemon gate (warm resident session vs cold CLI)"
# One daemon owns a warm Session (process pool + persistent cache + cost
# model); every lap below is a thin `--attach` client. The gate pins three
# things: (a) attached roll-ups are byte-identical to the local thread
# reference, (b) the *second* attached lap actually runs warm
# (persistent-cache hits, pooled-worker reuse, measured cost model — all
# resident state, no disk round trip between laps), and (c) the daemon
# drains cleanly on --stop. Wall-clock for a cold CLI lap vs a warm
# attached lap is recorded as a bench datapoint for the trend gate.
rm -rf build/serve-cache build/serve-cold-cache
rm -f build/serve.sock
./build/tools/advm serve --socket build/serve.sock \
  --backend process --shards 4 --jobs 8 --cache-dir build/serve-cache \
  2> build/serve-daemon.log &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  ./build/tools/advm serve --stats --socket build/serve.sock \
    > /dev/null 2>&1 && break
  sleep 0.1
done
# Cold reference: a standalone CLI lap pays session construction, worker
# spawns, and an empty cost model every time (fresh cache dir per lap).
# Exit codes are informational, as in the shard gate: the e10 cube has
# legitimately failing cells.
COLD_NS=""
for _ in 1 2; do
  rm -rf build/serve-cold-cache
  t0=$(date +%s%N)
  ./build/tools/advm matrix build/shard-env $SHARD_AXES \
    --backend process --shards 4 --jobs 8 \
    --cache-dir build/serve-cold-cache \
    --format json > build/serve-cold.json || true
  COLD_NS="$COLD_NS $(( $(date +%s%N) - t0 ))"
done
# Attached laps: lap 1 warms the resident session, later laps ride it.
./build/tools/advm matrix build/shard-env $SHARD_AXES \
  --attach build/serve.sock --format json > build/serve-lap1.json || true
WARM_NS=""
for _ in 1 2 3; do
  t0=$(date +%s%N)
  ./build/tools/advm matrix build/shard-env $SHARD_AXES \
    --attach build/serve.sock --format json > build/serve-lap2.json || true
  WARM_NS="$WARM_NS $(( $(date +%s%N) - t0 ))"
done
./build/tools/advm serve --stats --socket build/serve.sock \
  --format json > build/serve-stats.json
python3 - build/serve-lap1.json build/serve-lap2.json build/serve-cold.json \
  build/shard-thread.json build/serve-stats.json "$COLD_NS" "$WARM_NS" <<'PY'
import json, sys
lap1, lap2, cold, thread, stats = (json.load(open(p)) for p in sys.argv[1:6])
cold_ms = min(int(n) for n in sys.argv[6].split()) / 1e6
warm_ms = min(int(n) for n in sys.argv[7].split()) / 1e6
roll = lambda doc: json.dumps(doc["rollup"], sort_keys=True)
assert roll(lap1) == roll(thread), "attached lap-1 roll-up diverged"
assert roll(lap2) == roll(thread), "warm attached roll-up diverged"
assert roll(cold) == roll(thread), "cold CLI roll-up diverged"
# The daemon's session config governs attached execution: the client sent
# no backend flags, yet the document reports the resident process pool.
assert lap1["backend"] == "process" and lap1["shards"] == 4, lap1["backend"]
# Lap 1 hits an empty cost model (estimates); lap 2 must seed from the
# measurements lap 1 recorded — in memory, the daemon never re-reads them.
assert lap1["cost_model"]["source"] == "estimate", lap1["cost_model"]
assert lap2["cost_model"]["source"] == "measured", lap2["cost_model"]
assert lap2["worker_reuse"] > 0, lap2["worker_reuse"]
hits = sum(c["cache"]["persistent_hits"] for c in lap2["cells"])
assert hits > 0, "warm attached lap had no persistent-cache hits"
assert stats["ok"] is True and stats["verb"] == "serve", stats
assert stats["clients_served"] >= 4, stats["clients_served"]
assert stats["requests"].get("matrix", 0) >= 4, stats["requests"]
assert stats["trees"] >= 1, stats["trees"]
assert stats["clients_lost"] == 0, stats["clients_lost"]
tests = sum(c["total"] for c in lap2["cells"])
record = {
    "bench": "serve_daemon",
    "table": "cold-cli vs warm-daemon (e10 cube, process backend)",
    "headers": ["lap", "tests run", "wall ms", "tests/s"],
    "rows": [
        ["cold-cli", str(tests), "%.4g" % cold_ms,
         "%.4g" % (tests / (cold_ms / 1e3))],
        ["warm-daemon", str(tests), "%.4g" % warm_ms,
         "%.4g" % (tests / (warm_ms / 1e3))],
    ],
}
with open("bench/records/BENCH_serve_daemon.json", "w") as fh:
    fh.write(json.dumps(record) + "\n")
print("serve daemon ok: roll-ups byte-identical, warm lap %d persistent "
      "hits / reuse %d, cold %.0fms vs warm %.0fms" %
      (hits, lap2["worker_reuse"], cold_ms, warm_ms))
PY
./build/tools/advm serve --stop --socket build/serve.sock > /dev/null
wait "$SERVE_PID"
trap - EXIT
if [[ -e build/serve.sock ]]; then
  echo "daemon exited without unlinking its socket" >&2
  exit 1
fi

echo "==> sim-core lap (decoded-cache speedup gate + backend roll-up identity)"
# bench_sim_core exits non-zero unless the decoded arm is bit-identical to
# the plain interpreter on all four kernels AND holds a >= 3x instr/s
# advantage on the compute kernel. Its datapoint lands in bench/records/ so
# the >15% trend gate below covers the sim core's floor too. The roll-up
# re-check reuses the shard-gate artifacts: a sim-core change must be
# invisible in the e10 cube under both backends.
cmake --build build -t bench_sim_core -j
mkdir -p bench/records build/bench-logs
ADVM_BENCH_JSON_DIR="$PWD/bench/records" ./build/bench/bench_sim_core \
  > build/bench-logs/bench_sim_core.log
tail -2 build/bench-logs/bench_sim_core.log
python3 - build/shard-thread.json build/shard-process.json <<'PY'
import json, sys
thread, process = (json.load(open(p)) for p in sys.argv[1:3])
assert json.dumps(thread["rollup"], sort_keys=True) == \
       json.dumps(process["rollup"], sort_keys=True), \
    "e10 roll-up diverged between thread and process backends"
print("sim-core lap ok: e10 roll-up byte-identical across backends")
PY

echo "==> perfbench smoke lane (healthy + port, traced, outputs checked)"
# The repository benchmark checks every lap's output: replayed digests
# against the Session's, the interpreter cross-check, and report-byte
# equality. A cache or memo bug that changes output fails here even
# where no unit test looks.
for workload in healthy port; do
  if ! python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 5 --trace 1 > "build/perfbench-$workload.log" 2>&1; then
    tail -20 "build/perfbench-$workload.log" >&2
    exit 1
  fi
  python3 - "build/perfbench-$workload.log" "$workload" <<'PY'
import json, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l.strip()]
doc = json.loads(lines[-1])
assert doc["correct"] is True, doc
assert doc["failed"] == 0, doc
print("perfbench %s ok: %d laps attempted, all correct"
      % (sys.argv[2], doc["attempted"]))
PY
done

echo "==> -Werror hygiene build"
cmake --preset werror
cmake --build build-werror -j

if [[ "${ADVM_CI_SKIP_SAN:-0}" != "1" ]]; then
  echo "==> ASan+UBSan lane (tier-1 ctest, instrumented end to end)"
  # The e2e suites spawn the real CLI, so the whole tree — libraries, CLI,
  # daemon, tests — runs instrumented. halt_on_error keeps UBSan fatal.
  cmake --preset asan
  cmake --build build-asan -j
  (cd build-asan && \
   UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
   ctest -L tier1 --output-on-failure -j)

  echo "==> TSan lane (concurrency suites: worker pools, serve daemon)"
  # Scoped to the suites that actually exercise threads — WorkerPool
  # fan-out, the daemon's executor/poll loops, parallel regression, the
  # object cache's same-key builds and the VFS digests pool threads
  # compute lazily — a full TSan ctest lap would mostly re-run
  # single-threaded code slower.
  cmake --preset tsan
  cmake --build build-tsan -j \
    -t exec_test -t serve_test -t regression_parallel_test \
    -t objcache_test -t support_test
  for suite in exec_test serve_test regression_parallel_test \
               objcache_test support_test; do
    "./build-tsan/tests/${suite}"
  done
else
  echo "==> sanitizer lanes skipped (ADVM_CI_SKIP_SAN=1)"
fi

if [[ "${ADVM_CI_SKIP_TIDY:-0}" != "1" ]] && command -v clang-tidy > /dev/null
then
  echo "==> clang-tidy gate (src/, profile in .clang-tidy)"
  # compile_commands.json comes from the default configure; tidy findings
  # are errors (WarningsAsErrors in .clang-tidy), so a regression fails CI.
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  find src -name '*.cpp' -print0 | xargs -0 -P "$(nproc)" -n 8 \
    clang-tidy -p build --quiet
else
  echo "==> clang-tidy gate skipped (binary missing or ADVM_CI_SKIP_TIDY=1)"
fi

if [[ "${ADVM_CI_SKIP_BENCH:-0}" != "1" ]]; then
  echo "==> bench harnesses (BENCH_*.json)"
  cmake --build build -t benches -j
  # Records land in bench/records/ — tracked by git, NOT under build/ and
  # NOT matched by the root-level /BENCH_*.json ignore — so the trajectory
  # the trend gate diffs against survives clean checkouts and build wipes.
  # (The old build/bench-json destination was wiped with build/, which left
  # the >N% drop gate comparing against an empty history: vacuously green.)
  mkdir -p bench/records build/bench-logs
  export ADVM_BENCH_JSON_DIR="$PWD/bench/records"
  # Table-based experiment harnesses; e9 (google-benchmark) reports its own
  # JSON natively when wanted and is too slow for a default CI lap.
  for bench in ablation e1_structure e2_spec_change e3_wrapper e4_platforms \
               e5_devtime e6_porting e7_random e8_labels e10_matrix; do
    "./build/bench/bench_${bench}" > "build/bench-logs/bench_${bench}.log"
  done
  echo "bench records: $(ls "$ADVM_BENCH_JSON_DIR"/BENCH_*.json | wc -l) files in bench/records/"

  echo "==> perf trend gate (fails on >${ADVM_TREND_MAX_DROP:-15}% throughput drop)"
  # The history file sits next to the records and is committed with them;
  # consecutive CI laps (= consecutive revisions) diff against each other.
  python3 tools/bench_trend.py bench/records \
    --history bench/records/bench-trend-history.jsonl \
    --max-drop "${ADVM_TREND_MAX_DROP:-15}"
fi

echo "==> CI green"
