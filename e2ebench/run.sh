#!/usr/bin/env bash
# Builds e2ebench from this checkout's sources (a full build on the first
# run, a no-op check afterwards) into .bench_build/e2ebench at the
# repository root, then replaces this shell with the benchmark, so the
# measured run is a single process. Arguments pass through:
#
#   bash e2ebench/run.sh --workload paper_cell --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$(dirname "$bench_dir")/.bench_build/e2ebench"
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake -S "$bench_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build_dir" --target e2ebench -j 4 >&2
exec "$build_dir/e2ebench" --pins "$bench_dir/pins.txt" \
  --state-dir "$build_dir/state" --trace-dir "$build_dir/traces" "$@"
