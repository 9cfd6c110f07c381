#!/usr/bin/env bash
# Builds the benchmark driver into build-benchmark/ (its own CMake project,
# so the root build is untouched) and runs the benchmark. Arguments go to
# run.py; see `benchmark/run.sh --help` and benchmark/README.md.
#
#   benchmark/run.sh --seed 42            # full untraced set, 4 workloads
#   benchmark/run.sh --seed 42 --trace    # plus one traced run per workload
#   benchmark/run.sh --smoke              # CI-sized check of every metric
#   benchmark/run.sh --workload paper_5_1 --seed 7 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/build-benchmark"
jobs="$(nproc 2>/dev/null || echo 2)"
jobs=$(( jobs > 4 ? 4 : jobs ))

# Build chatter goes to stderr: the last line of stdout is the result.
cmake -S "${root}/benchmark" -B "${build}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "${build}" --target diknn_benchmark -j "${jobs}" >&2

exec python3 "${root}/benchmark/run.py" "$@"
