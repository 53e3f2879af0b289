#!/usr/bin/env sh
# Timing regression gate for the paper's Table I/II stages and the serve
# path built on them.
#
# Runs four benches from an existing build tree and gates each one's
# rows against tools/<bench>.baseline.csv with one comparator,
# tools/bench_gate.awk (its header gives each bench's rule):
#   bench_table1_2_timing    stage mean ceilings
#   bench_serve_multistream  events/s floors, shed, fairness, batched
#                            beats per_ring
#   bench_nn_kernels         items/s floor per dispatched SIMD variant
#                            (variants the host lacks are skipped)
#   bench_loc_incremental    mean ceilings, incremental update beats the
#                            batch recompute, exact touched/ring ceilings
# Wall-clock noise is real, so the default tolerance is loose: this gate
# catches "the blocked GEMM fell off a cliff", not 5% jitter.  Every
# bench runs and every failure is listed; the exit status is the worst.
#
# Usage: tools/check_timing_regression.sh [--check-only] [build_dir] [tolerance]
#   --check-only  mode for noisy shared runners: print every comparison,
#                 but gate only the touched/ring counts, which noise
#                 cannot move.
#   build_dir     cmake build tree containing bench/ (default: build)
#   tolerance     allowed slowdown factor (default: 1.5)
# Environment:
#   ADAPT_BENCH_CSV_DIR  if set, each bench's rows are copied there (CI
#                        uploads them as artifacts for offline triage).
# Exit: 0 pass, 1 a gated check failed, 2 a structural fault (a bench
# not built or crashed, no rows, a baseline that does not parse).
#
# NOTE: never point build_dir at a tree configured with ADAPT_WERROR,
# ADAPT_CHECKED, or ADAPT_SANITIZE, and never refresh a baseline from
# one: checked contracts and sanitizer instrumentation slow the kernels
# by integer factors, so such a tree either fails the gate spuriously
# or (worse) poisons the baseline into masking real regressions.
# Timing baselines come from the plain release build only; the
# correctness trees belong to tools/check_static_analysis.sh.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

check_only=0
build_dir=""
tolerance=""
for arg in "$@"; do
  case "$arg" in
    --check-only) check_only=1 ;;
    -h|--help) sed -n '2,37p' "$0"; exit 0 ;;
    *)
      if [ -z "$build_dir" ]; then build_dir=$arg
      elif [ -z "$tolerance" ]; then tolerance=$arg
      else echo "error: unexpected argument $arg" >&2; exit 2
      fi
      ;;
  esac
done
[ -n "$tolerance" ] || tolerance=1.5
awk -v t="$tolerance" 'BEGIN { exit (t + 0 > 0 && t + 0 == t) ? 0 : 1 }' || {
  echo "error: tolerance '$tolerance' is not a positive number" >&2
  exit 2
}
# The benches run from a scratch dir, so resolve build_dir first.
build_dir=$(CDPATH= cd -- "${build_dir:-$repo_root/build}" && pwd) || exit 2
# touched/ring is a count over the bench's default 400-ring streams.
ADAPT_LOC_BENCH_RINGS=400
export ADAPT_LOC_BENCH_RINGS

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
[ -z "${ADAPT_BENCH_CSV_DIR:-}" ] || mkdir -p "$ADAPT_BENCH_CSV_DIR"

status=0
worst() { [ "$1" -le "$status" ] || status=$1; }

# run_bench NAME [ARG...]: run bench/NAME in the scratch dir and gate
# its rows: the NAME.csv it writes there, or else its stdout.
run_bench() {
  name=$1
  shift
  echo "== $name"
  if [ ! -x "$build_dir/bench/$name" ]; then
    echo "error: $build_dir/bench/$name not built (cmake --build $build_dir --target $name)" >&2
    worst 2
    return
  fi
  if ! (cd "$scratch" && "$build_dir/bench/$name" "$@" >"$name.out" 2>"$name.log"); then
    cat "$scratch/$name.out" "$scratch/$name.log" >&2
    echo "error: $name failed" >&2
    worst 2
    return
  fi
  rows=$scratch/$name.csv
  [ -f "$rows" ] || rows=$scratch/$name.out
  [ -z "${ADAPT_BENCH_CSV_DIR:-}" ] || cp "$rows" "$ADAPT_BENCH_CSV_DIR/$name.csv"
  rc=0
  awk -F, -v bench="$name" -v tol="$tolerance" -v check_only="$check_only" \
    -f "$repo_root/tools/bench_gate.awk" "$repo_root/tools/$name.baseline.csv" "$rows" || rc=$?
  worst "$rc"
}

run_bench bench_table1_2_timing
run_bench bench_serve_multistream
run_bench bench_nn_kernels --benchmark_filter='Kernel|Int8Dot|BackgroundNetInt8|Fp32' \
  --benchmark_format=csv
run_bench bench_loc_incremental

case $status in
  0) echo "timing check passed (tolerance ${tolerance}x)" ;;
  1) echo "timing check FAILED (tolerance ${tolerance}x): if a slowdown is intentional," >&2
     echo "refresh the failing bench's tools/*.baseline.csv from a quiet machine" >&2 ;;
  *) echo "timing check could not run: structural fault above" >&2 ;;
esac
exit "$status"
