#!/usr/bin/env bash
# End-to-end benchmark runner.  Builds adapt_e2e into build-bench/
# without touching the repo's own build files, trains the burst
# networks into build-bench/models/ on first use, and runs one workload.
#
# Usage, from the repo root:
#   bash bench/e2e/run.sh --workload W [--seed N] [--seconds S]
#                         [--trace 0|1 | --traced]
#
# Prints one `name value unit n=samples` line per metric and one line
# per output check; the last line is a JSON object.  Also writes the
# run's record to build-bench/BENCH_e2e.json.  Exits non-zero when an
# output check fails or the tree is not a source checkout.
set -euo pipefail

if [[ ! -f CMakeLists.txt || ! -d src || ! -f bench/e2e/e2e.cmake ]]; then
  echo "run.sh: run from the root of a source checkout" >&2
  exit 2
fi

# Thread budget (README, "Why these choices"): one compute thread, plus
# the serve producer, which sleeps while a wave is in flight.
export OMP_NUM_THREADS=1 ADAPT_NUM_THREADS=1

build=build-bench
if [[ ! -f $build/CMakeCache.txt ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S . -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DADAPT_BUILD_BENCH=OFF -DADAPT_BUILD_EXAMPLES=OFF \
    -DCMAKE_PROJECT_adaptml_INCLUDE="$PWD/bench/e2e/e2e.cmake" >&2
fi
cmake --build "$build" --target adapt_e2e -j 2 >&2

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$build/adapt_e2e" --models "$build/models" \
  --out "$build/BENCH_e2e.json" --git "$rev" "$@"
