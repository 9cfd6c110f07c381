#!/usr/bin/env bash
# The whole pre-merge gauntlet in one command: release build + full test
# suite, the ASan/UBSan and TSan presets, smoke passes of the workload,
# event-engine, observability, micro, pdes and channel benches
# (seconds-long DIKNN_WORKLOAD_SMOKE / DIKNN_ENGINE_SMOKE /
# DIKNN_OBS_SMOKE / DIKNN_MICRO_SMOKE / DIKNN_PDES_SMOKE runs and a
# 2000-frame bench_channel, so the bench binaries themselves are
# exercised; bench_micro's steady-state allocation gate runs at full
# strength even in smoke mode, and bench_channel fails if the grid and
# brute-force traffic counters diverge), then the six examples and a
# one-run bench_window_query, which must all exit 0
# (DIKNN_CHECK_BENCH=0 skips this block).
# The smokes run in a temporary directory: a bench writes
# BENCH_<name>.json to its working directory, and the committed records
# at the repository root are full-mode runs. Then a traced-query run
# whose Chrome-trace and metrics JSON are validated with python3 — the
# metrics must report zero steady-state packet-plane allocations
# (net.allocs == 0, net.alloc_per_frame == 0; see docs/PACKET_PLANE.md),
# a frame-log smoke of `diknn-sim --trace`, a CLI validation check, and
# the repo benchmark's smoke mode (benchmark/run.sh --smoke).
#
# Usage: scripts/check_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."
bench="$PWD/build/bench"
examples="$PWD/build/examples"

echo "== release build + ctest =="
cmake --preset release
cmake --build --preset release -j "$(nproc)"
ctest --preset release --output-on-failure -j "$(nproc)"

echo "== ASan/UBSan =="
scripts/check_asan.sh --output-on-failure

echo "== TSan =="
scripts/check_tsan.sh --output-on-failure

obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT

if [[ "${DIKNN_CHECK_BENCH:-1}" != "0" ]]; then
  (
    cd "$obs_dir"
    echo "== bench_workload smoke =="
    DIKNN_WORKLOAD_SMOKE=1 "$bench/bench_workload"
    echo "== bench_engine smoke =="
    DIKNN_ENGINE_SMOKE=1 "$bench/bench_engine"
    echo "== bench_obs smoke =="
    DIKNN_OBS_SMOKE=1 "$bench/bench_obs"
    echo "== bench_micro smoke (allocation gate) =="
    DIKNN_MICRO_SMOKE=1 "$bench/bench_micro"
    echo "== bench_pdes smoke (shard equivalence) =="
    DIKNN_PDES_SMOKE=1 "$bench/bench_pdes"
    echo "== bench_pdes query smoke (served workload across shards) =="
    DIKNN_PDES_QUERY_SMOKE=1 "$bench/bench_pdes"
    echo "== bench_channel smoke (grid vs brute-force equivalence) =="
    DIKNN_BENCH_FRAMES=2000 DIKNN_BENCH_SIZES=250,1000 "$bench/bench_channel"
    # The examples and bench_window_query are the only non-test binaries
    # that drive both itinerary sweeps (window and aggregate).
    echo "== examples =="
    for example in quickstart battlefield_monitoring continuous_monitoring \
        environmental_monitoring protocol_comparison wildlife_tracking; do
      echo "-- $example"
      "$examples/$example"
    done
    echo "== bench_window_query smoke =="
    DIKNN_RUNS=1 "$bench/bench_window_query"
  )
fi

echo "== traced-query smoke =="
./build/tools/diknn-sim --runs 1 --duration 20 --nodes 120 --field 90 \
  --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.json"
if command -v python3 >/dev/null; then
  python3 -m json.tool "$obs_dir/trace.json" >/dev/null
  python3 - "$obs_dir/metrics.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
allocs = doc["counters"].get("net.allocs")
per_frame = doc["gauges"].get("net.alloc_per_frame")
if allocs != 0 or per_frame != 0:
    raise SystemExit("allocation gate: expected net.allocs == 0 and "
                     f"net.alloc_per_frame == 0, got {allocs} / {per_frame}")
print("trace + metrics JSON well-formed; net.allocs == 0")
PY
else
  echo "python3 not found; skipping JSON validation"
fi

echo "== frame-log smoke (diknn-sim --trace) =="
./build/tools/diknn-sim --runs 1 --duration 5 --nodes 120 --field 90 \
  --trace "$obs_dir/frames.csv" >/dev/null
[[ "$(head -n 1 "$obs_dir/frames.csv")" == "time,sender,x,y,type,bytes" ]] \
  || { echo "frame log: unexpected CSV header"; exit 1; }
grep -q ',DiknnForward,' "$obs_dir/frames.csv" \
  || { echo "frame log: no DiknnForward row"; exit 1; }
echo "frame log: $(($(wc -l < "$obs_dir/frames.csv") - 1)) frames"

echo "== CLI validation =="
status=0
./build/tools/diknn-sim --trace-sample -1 --runs 1 >/dev/null 2>&1 \
  || status=$?
[[ "$status" == 2 ]] \
  || { echo "--trace-sample -1: expected exit 2, got $status"; exit 1; }
echo "--trace-sample -1 rejected with exit 2"
status=0
./build/tools/diknn-sim --workload 'arrival@kind=poisson,rate=nan;k@lo=5' \
  --runs 1 >/dev/null 2>&1 || status=$?
[[ "$status" == 2 ]] \
  || { echo "--workload rate=nan: expected exit 2, got $status"; exit 1; }
echo "--workload rate=nan rejected with exit 2"
# Numeric flags parse strictly and are range-checked: a zero query
# interval would otherwise schedule arrivals at one instant forever,
# "1e3" would read as 1 node, and a loss rate of 2 would run.
for bad in "--interval 0" "--nodes 1e3" "--loss 2"; do
  status=0
  # shellcheck disable=SC2086
  timeout 10 ./build/tools/diknn-sim $bad --runs 1 >/dev/null 2>&1 \
    || status=$?
  [[ "$status" == 2 ]] \
    || { echo "$bad: expected exit 2, got $status"; exit 1; }
  echo "$bad rejected with exit 2"
done

echo "== served-workload smoke =="
./build/tools/diknn-sim --runs 1 --duration 30 --nodes 120 --field 90 \
  --workload 'arrival@kind=poisson,rate=8;k@lo=10;space@kind=hotspot,n=2,sigma=5,skew=1.2;deadline@s=4;admit@inflight=128,queue=32,shed=1;cache@ttl=8,cells=3;coalesce@window=3,kslack=6' \
  --metrics-out "$obs_dir/served.json"
if command -v python3 >/dev/null; then
  python3 - "$obs_dir/served.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
hits = doc["counters"].get("serving.cache_hits", 0)
if hits <= 0:
    raise SystemExit("served-workload smoke: expected serving.cache_hits > 0, "
                     f"got {hits}")
print(f"serving.cache_hits = {hits}")
PY
else
  echo "python3 not found; skipping served-workload validation"
fi

echo "== flight-recorder smoke =="
# A served workload with the recorder on: the artifact must be valid
# JSON with at least one non-empty deterministic series, byte-identical
# across --jobs, and its deterministic section byte-identical between
# the 1-shard windowed engine and a 4-shard run (docs/OBSERVABILITY.md
# "Time series & flight recorder"). Both sharded runs must also keep every
# worker thread's steady state allocation-free (net.allocs == 0).
ts_workload='arrival@kind=poisson,rate=8;k@lo=6,hi=10;deadline@s=2;admit@inflight=24,queue=12'
./build/tools/diknn-sim --runs 2 --jobs 1 --duration 20 --nodes 120 --field 90 \
  --workload "$ts_workload" --ts-interval 1 --ts-out "$obs_dir/ts_jobs1.json"
./build/tools/diknn-sim --runs 2 --jobs 4 --duration 20 --nodes 120 --field 90 \
  --workload "$ts_workload" --ts-interval 1 --ts-out "$obs_dir/ts_jobs4.json"
cmp "$obs_dir/ts_jobs1.json" "$obs_dir/ts_jobs4.json" \
  || { echo "flight recording differs across --jobs"; exit 1; }
./build/tools/diknn-sim --runs 1 --duration 8 --nodes 1024 --field 560 \
  --windowed --workload "$ts_workload" --ts-interval 0.5 \
  --ts-out "$obs_dir/ts_shards1.json" \
  --metrics-out "$obs_dir/ts_shards1_metrics.json"
./build/tools/diknn-sim --runs 1 --duration 8 --nodes 1024 --field 560 \
  --shards 4 --workload "$ts_workload" --ts-interval 0.5 \
  --ts-out "$obs_dir/ts_shards4.json" \
  --metrics-out "$obs_dir/ts_shards4_metrics.json"
if command -v python3 >/dev/null; then
  python3 - "$obs_dir/ts_jobs1.json" "$obs_dir/ts_shards1.json" \
    "$obs_dir/ts_shards4.json" <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    series = doc["series"]
    if not any(s["v"] for s in series.values()):
        raise SystemExit(f"{path}: no non-empty deterministic series")
a, b = (json.load(open(p)) for p in sys.argv[2:4])
if (a["series"], a["annotations"]) != (b["series"], b["annotations"]):
    raise SystemExit("deterministic series differ across shard counts")
print(f"flight recording OK: {len(series)} deterministic series, "
      "bit-identical across --jobs and --shards")
PY
  # The sharded engine's allocation gate with the recorder and the query
  # plane on: every worker thread's steady state must be allocation-free.
  python3 - "$obs_dir/ts_shards1_metrics.json" \
    "$obs_dir/ts_shards4_metrics.json" <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        allocs = json.load(f)["counters"].get("net.allocs")
    if allocs != 0:
        raise SystemExit(f"{path}: expected net.allocs == 0, got {allocs}")
print("recorded psim runs: net.allocs == 0 at --windowed and --shards 4")
PY
else
  echo "python3 not found; skipping flight-recorder validation"
fi

echo "== repo benchmark smoke =="
bash benchmark/run.sh --smoke

echo "All checks passed."
