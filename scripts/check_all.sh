#!/usr/bin/env bash
# The whole pre-merge gauntlet in one command: release build + full test
# suite, the ASan/UBSan and TSan presets, smoke passes of the workload,
# event-engine, observability, micro, pdes and channel benches
# (seconds-long DIKNN_WORKLOAD_SMOKE / DIKNN_ENGINE_SMOKE /
# DIKNN_OBS_SMOKE / DIKNN_MICRO_SMOKE / DIKNN_PDES_SMOKE runs and a
# 2000-frame bench_channel, so the bench binaries themselves are
# exercised; bench_micro's steady-state allocation gate runs at full
# strength even in smoke mode, bench_channel fails if the grid and
# brute-force traffic counters diverge, and in a git checkout its
# record's provenance sha must equal HEAD), then the six examples and a
# one-run bench_window_query, which must all exit 0
# (DIKNN_CHECK_BENCH=0 skips this block).
# The smokes run in a temporary directory: a bench writes
# BENCH_<name>.json to its working directory, and the committed records
# at the repository root are full-mode runs. Then a traced-query run
# whose Chrome-trace and metrics JSON are validated with python3 — the
# metrics must report zero steady-state packet-plane allocations
# (net.allocs == 0, net.alloc_per_frame == 0; see docs/PACKET_PLANE.md),
# the same allocation gate on a dup@ fault-plan run, which must also drop
# re-aired copies (mac.duplicates_dropped > 0), and on a short run of each
# baseline (KPT, Peer-tree, flooding, Centralized), a frame-log smoke of
# `diknn-sim --trace` (a --workload run's log must equal a --k run's at
# the spec's k@lo), a check that the default run is the paper's Section
# 5.1 spec, a CLI validation check, and the repo benchmark's smoke mode
# (benchmark/run.sh --smoke).
#
# Usage: scripts/check_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."
repo="$PWD"
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
    # Benches read the sha at build time (bench/git_sha.cmake), so the
    # record just written must name the checked-out commit.
    if command -v python3 >/dev/null &&
        head_sha="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null)"; then
      python3 - BENCH_channel.json "$head_sha" <<'PY'
import json
import sys

sha = json.load(open(sys.argv[1]))["provenance"]["git_sha"]
if sha != sys.argv[2]:
    sys.exit(f"BENCH_channel.json names {sha}, HEAD is {sys.argv[2]}")
print(f"provenance git_sha {sha} == HEAD")
PY
    fi
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

echo "== faulted smoke (dup@ plan) =="
# Under dup@ the channel re-airs frames, and re-aired broadcasts are the
# only broadcasts the MAC checks against its duplicate window: the copies
# must be dropped (mac.duplicates_dropped > 0) while the packet plane
# stays allocation-free (net.allocs == 0).
./build/tools/diknn-sim --runs 1 --duration 20 --nodes 120 --field 90 \
  --faults 'dup@t=0,dur=20,prob=0.5' --metrics-out "$obs_dir/dup.json" \
  >/dev/null
if command -v python3 >/dev/null; then
  python3 - "$obs_dir/dup.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
allocs = counters.get("net.allocs")
dropped = counters.get("mac.duplicates_dropped", 0)
if allocs != 0 or dropped <= 0:
    raise SystemExit("faulted smoke: expected net.allocs == 0 and "
                     f"mac.duplicates_dropped > 0, got {allocs} / {dropped}")
print(f"faulted smoke: net.allocs == 0, mac.duplicates_dropped = {dropped}")
PY
else
  echo "python3 not found; skipping faulted-smoke validation"
fi

echo "== baseline allocation gate =="
# A baseline's handlers run outside the packet plane's net scope (as
# DIKNN's do), so a short run of each must leave net.allocs at 0 too.
for protocol in kpt peertree flooding centralized; do
  ./build/tools/diknn-sim --protocol "$protocol" --runs 1 --duration 20 \
    --metrics-out "$obs_dir/alloc_$protocol.json" >/dev/null
done
if command -v python3 >/dev/null; then
  python3 - "$obs_dir" <<'PY'
import json, sys
for protocol in ("kpt", "peertree", "flooding", "centralized"):
    with open(f"{sys.argv[1]}/alloc_{protocol}.json") as f:
        allocs = json.load(f)["counters"].get("net.allocs")
    if allocs != 0:
        raise SystemExit(f"{protocol}: expected net.allocs == 0, got {allocs}")
print("baselines: net.allocs == 0 for kpt, peertree, flooding, centralized")
PY
else
  echo "python3 not found; skipping baseline allocation gate"
fi

echo "== frame-log smoke (diknn-sim --trace) =="
./build/tools/diknn-sim --runs 1 --duration 5 --nodes 120 --field 90 \
  --trace "$obs_dir/frames.csv" >/dev/null
[[ "$(head -n 1 "$obs_dir/frames.csv")" == "time,sender,x,y,type,bytes" ]] \
  || { echo "frame log: unexpected CSV header"; exit 1; }
grep -q ',DiknnForward,' "$obs_dir/frames.csv" \
  || { echo "frame log: no DiknnForward row"; exit 1; }
echo "frame log: $(($(wc -l < "$obs_dir/frames.csv") - 1)) frames"
# A --workload run cannot set --k: its logged query takes the spec's
# k@lo, so its log must equal a run's whose --k sets that k.
./build/tools/diknn-sim --runs 1 --duration 5 \
  --workload 'arrival@kind=poisson,rate=1;k@lo=5' \
  --trace "$obs_dir/frames_workload.csv" >/dev/null
./build/tools/diknn-sim --runs 1 --duration 5 --k 5 \
  --trace "$obs_dir/frames_k5.csv" >/dev/null
cmp "$obs_dir/frames_workload.csv" "$obs_dir/frames_k5.csv" \
  || { echo "frame log: the workload run's query ignores k@lo"; exit 1; }
echo "frame log: a --workload run logs a query at its spec's k@lo"

echo "== default workload smoke =="
# Without --workload a run replays the paper's Section 5.1 spec, so
# naming that spec must change no byte of the output.
./build/tools/diknn-sim --runs 2 --duration 20 >"$obs_dir/default.txt"
./build/tools/diknn-sim --runs 2 --duration 20 \
  --workload 'arrival@kind=poisson,rate=0.25;k@lo=40' >"$obs_dir/spec.txt"
cmp "$obs_dir/default.txt" "$obs_dir/spec.txt" \
  || { echo "the default run is not the Section 5.1 spec"; exit 1; }
echo "default run == 'arrival@kind=poisson,rate=0.25;k@lo=40'"

echo "== CLI validation =="
# Each of these must exit 2 before simulating anything.
expect_exit2() {
  local status=0
  timeout 10 ./build/tools/diknn-sim "$@" --runs 1 >/dev/null 2>&1 \
    || status=$?
  [[ "$status" == 2 ]] || { echo "$*: expected exit 2, got $status"; exit 1; }
  echo "$* rejected with exit 2"
}
# Numeric flags parse strictly and are range-checked: a zero query
# interval would otherwise schedule arrivals at one instant forever,
# "1e3" would read as 1 node, and a loss rate of 2 would run.
expect_exit2 --trace-sample -1
expect_exit2 --interval 0
expect_exit2 --nodes 1e3
expect_exit2 --loss 2
# Both spec grammars take only finite numbers and integers in int range:
# NaN would pass every range check, and 4294967297 would wrap to k=1.
expect_exit2 --workload 'arrival@kind=poisson,rate=nan;k@lo=5'
expect_exit2 --faults 'kill@t=nan,count=2'
expect_exit2 --workload 'arrival@kind=poisson,rate=1;k@lo=4294967297'
# A workload spec describes queries only: tracing and the flight
# recorder are run flags, and a spec clause naming them does not parse.
expect_exit2 --workload 'arrival@kind=poisson,rate=1;k@lo=5;trace@rate=1'
expect_exit2 --workload \
  'arrival@kind=poisson,rate=1;k@lo=5;timeseries@interval=1'
# --k and --interval edit the default spec; a --workload spec replaces
# it, so they would go unread. These probes and the ignored-flag cases
# below pass a valid spec, so only the flag under test can cause the
# exit 2.
windowed_spec='arrival@kind=poisson,rate=1;k@lo=5'
expect_exit2 --workload "$windowed_spec" --k 5
expect_exit2 --workload "$windowed_spec" --interval 2
# The windowed engine runs its own DIKNN emulation on a uniform field
# without faults or traces: a flag it would ignore exits 2 rather than
# mislabel the run.
expect_exit2 --shards 2 --protocol kpt --workload "$windowed_spec"
expect_exit2 --windowed --faults 'kill@t=1,count=5' \
  --workload "$windowed_spec"
# Without --workload the windowed engine runs the default spec: it exits
# 0 and issues queries.
windowed_default="$(timeout 60 ./build/tools/diknn-sim --windowed --runs 1 \
  --duration 20)"
grep -Eq 'run 0 \(seed 42\): [1-9][0-9]* queries' <<<"$windowed_default" \
  || { echo "--windowed without --workload issued no queries"; exit 1; }
echo "--windowed without --workload runs the default spec"

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
# "Time series & flight recorder"). The serial and the windowed
# recording of the spec must carry the same workload.* / serving.*
# series names: the shared query sink installs them on both engines.
# Both sharded runs must also keep every worker thread's steady state
# allocation-free (net.allocs == 0).
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
serial, a, b = (json.load(open(p)) for p in sys.argv[1:4])
def sink_series(doc):
    return sorted(n for n in doc["series"]
                  if n.startswith(("workload.", "serving.")))
if sink_series(serial) != sink_series(a):
    raise SystemExit("workload/serving series differ between engines: "
                     f"serial {sink_series(serial)}, windowed {sink_series(a)}")
if (a["series"], a["annotations"]) != (b["series"], b["annotations"]):
    raise SystemExit("deterministic series differ across shard counts")
print(f"flight recording OK: {len(series)} deterministic series, "
      "bit-identical across --jobs and --shards; "
      f"{len(sink_series(serial))} workload/serving series on both engines")
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
