#!/usr/bin/env sh
# Timing regression gate for the hot-path kernels.
#
# Runs the Table I/II timing bench from an existing build tree and
# compares each stage's mean against the stored baseline
# (tools/bench_table1_2_timing.baseline.csv, refreshed whenever the
# kernels intentionally change speed).  A stage whose mean exceeds
# baseline * tolerance fails the check; faster-than-baseline is always
# fine.  Wall-clock noise is real, so the default tolerance is loose —
# this gate catches "the blocked GEMM fell off a cliff", not 5% jitter.
#
# After the timing gate it also runs the tier-1 ctest suite under the
# ADAPT_SANITIZE (ASan+UBSan) build so the untrusted-input paths (CLI
# parsing, ring-file loading, NaN-ring handling) are sanitizer-covered
# on every run.  The sanitizer tree is configured/built on first use.
#
# Usage: tools/check_timing_regression.sh [--check-only] [build_dir] [tolerance]
#   --check-only  CI-safe mode for noisy shared runners: verify the
#                 baselines parse, run both benches, and print the
#                 comparison — but never fail on absolute timing
#                 numbers.  Structural problems (bench crashes, missing
#                 CSV output, unparseable baseline) still exit nonzero.
#                 Implies ADAPT_SKIP_ASAN=1 (CI runs the sanitizer
#                 suite in its own job).
#   build_dir  cmake build tree containing bench/ (default: build)
#   tolerance  allowed slowdown factor (default: 1.5)
#
# NOTE: never point build_dir at a tree configured with ADAPT_WERROR,
# ADAPT_CHECKED, or ADAPT_SANITIZE, and never refresh the baseline CSV
# from one: checked contracts and sanitizer instrumentation slow the
# kernels by integer factors, so such a tree either fails the gate
# spuriously or (worse) poisons the baseline into masking real
# regressions.  Timing baselines come from the plain release build
# only; the correctness trees belong to tools/check_static_analysis.sh.
# Environment:
#   ADAPT_TIMING_SLACK  extra tolerance multiplier (default 1).  A
#                       shared CI runner with noisy neighbors can set
#                       e.g. 2 or 3 without touching the baselines the
#                       quiet dev boxes gate against.
#   ADAPT_BENCH_CSV_DIR if set, the bench CSVs are copied there (CI
#                       uploads them as artifacts for offline triage).
#   ADAPT_ASAN_DIR      sanitizer build tree (default: <repo>/build-asan)
#   ADAPT_SKIP_ASAN     set to 1 to skip the sanitizer ctest step
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

check_only=0
build_dir=""
tolerance=""
for arg in "$@"; do
  case "$arg" in
    --check-only) check_only=1 ;;
    -h|--help) sed -n '2,45p' "$0"; exit 0 ;;
    *)
      if [ -z "$build_dir" ]; then build_dir=$arg
      elif [ -z "$tolerance" ]; then tolerance=$arg
      else echo "error: unexpected argument $arg" >&2; exit 2
      fi
      ;;
  esac
done
[ -n "$build_dir" ] || build_dir="$repo_root/build"
[ -n "$tolerance" ] || tolerance=1.5

slack=${ADAPT_TIMING_SLACK:-1}
tolerance=$(awk -v t="$tolerance" -v s="$slack" '
  BEGIN {
    if (t + 0 <= 0 || s + 0 <= 0) exit 1
    printf "%g", t * s
  }') || {
  echo "error: tolerance '$tolerance' / ADAPT_TIMING_SLACK '$slack' not positive numbers" >&2
  exit 2
}
[ "$slack" = "1" ] || echo "note: ADAPT_TIMING_SLACK=$slack -> effective tolerance ${tolerance}x"

baseline="$repo_root/tools/bench_table1_2_timing.baseline.csv"
bench="$build_dir/bench/bench_table1_2_timing"

# A baseline that exists but no longer parses (merge damage, truncated
# checkout) must be a loud failure even in --check-only mode, or the
# gate silently stops gating.
validate_baseline() {
  [ -f "$1" ] || { echo "error: baseline $1 missing" >&2; exit 2; }
  awk -F, '
    FNR > 1 {
      rows++
      if ($1 == "" || $2 + 0 != $2) { bad = 1; exit }
    }
    END { exit (bad || rows == 0) ? 1 : 0 }
  ' "$1" || {
    echo "error: baseline $1 does not parse (need header + name,mean rows)" >&2
    exit 2
  }
}

[ -x "$bench" ] || {
  echo "error: $bench not built (cmake --build $build_dir --target bench_table1_2_timing)" >&2
  exit 2
}
# The bench runs from a scratch dir, so a relative build_dir must be
# resolved first.
bench=$(CDPATH= cd -- "$(dirname -- "$bench")" && pwd)/$(basename -- "$bench")
validate_baseline "$baseline"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# The bench writes its CSV into the working directory.
(cd "$scratch" && "$bench" >bench.log 2>&1) || {
  cat "$scratch/bench.log" >&2
  echo "error: timing bench failed" >&2
  exit 2
}
current="$scratch/bench_table1_2_timing.csv"
[ -f "$current" ] || {
  echo "error: bench produced no bench_table1_2_timing.csv" >&2
  exit 2
}
if [ -n "${ADAPT_BENCH_CSV_DIR:-}" ]; then
  mkdir -p "$ADAPT_BENCH_CSV_DIR"
  cp "$current" "$ADAPT_BENCH_CSV_DIR/"
fi

status=0
awk -F, -v tol="$tolerance" '
  NR == FNR { if (FNR > 1) base[$1] = $2; next }
  FNR > 1 {
    stage = $1; mean = $2 + 0
    if (!(stage in base)) {
      printf "SKIP  %-22s no baseline row\n", stage
      next
    }
    limit = base[stage] * tol
    # Sub-millisecond stages are dominated by timer noise; give them
    # an absolute floor instead of a ratio.
    if (limit < 0.5) limit = 0.5
    if (mean > limit) {
      printf "FAIL  %-22s mean %6.1f ms > limit %6.1f ms (baseline %s ms)\n",
             stage, mean, limit, base[stage]
      failed = 1
    } else {
      printf "ok    %-22s mean %6.1f ms (baseline %s ms, limit %6.1f ms)\n",
             stage, mean, base[stage], limit
    }
  }
  END { exit failed ? 1 : 0 }
' "$baseline" "$current" || status=$?

if [ "$status" -eq 0 ]; then
  echo "timing check passed (tolerance ${tolerance}x)"
elif [ "$check_only" -eq 1 ]; then
  echo "timing over limit but --check-only set: reported, not gated"
  status=0
else
  echo "timing check FAILED (tolerance ${tolerance}x) — if the slowdown is intentional," >&2
  echo "refresh tools/bench_table1_2_timing.baseline.csv from a quiet machine" >&2
  exit "$status"
fi

# ---- serving-layer throughput gate --------------------------------
# bench_serve_throughput prints a machine-readable `CSV,` block; this
# gate checks three things against
# tools/bench_serve_throughput.baseline.csv:
#   * throughput per config has not fallen below baseline / tolerance
#     (events/s — higher is better, so the tolerance divides);
#   * shed count is exactly 0 for every non-saturated config (the
#     queue is sized to hold the whole stream, so any shed is a bug);
#   * the best batched config (batch >= 8) still beats the per-ring
#     loop — the reason the serving layer exists.
serve_bench="$build_dir/bench/bench_serve_throughput"
serve_baseline="$repo_root/tools/bench_serve_throughput.baseline.csv"
if [ ! -x "$serve_bench" ]; then
  echo "error: $serve_bench not built (cmake --build $build_dir --target bench_serve_throughput)" >&2
  exit 2
fi
validate_baseline "$serve_baseline"
"$serve_bench" >"$scratch/serve.log" 2>&1 || {
  cat "$scratch/serve.log" >&2
  echo "error: serve throughput bench failed" >&2
  exit 2
}
grep '^CSV,' "$scratch/serve.log" >"$scratch/serve.csv" || {
  echo "error: serve bench produced no CSV block" >&2
  exit 2
}
if [ -n "${ADAPT_BENCH_CSV_DIR:-}" ]; then
  cp "$scratch/serve.csv" "$ADAPT_BENCH_CSV_DIR/bench_serve_throughput.csv"
fi

serve_status=0
awk -F, -v tol="$tolerance" '
  NR == FNR { if (FNR > 1) base[$1] = $2; next }
  $2 == "config" { next }  # header line: CSV,config,events_per_s,...
  {
    cfg = $2; eps = $3 + 0; shed = $6 + 0
    current[cfg] = eps
    if (cfg != "saturated" && shed != 0) {
      printf "FAIL  %-12s shed %d events (must be 0 below saturation)\n",
             cfg, shed
      failed = 1
    }
    if (cfg in base) {
      floor = base[cfg] / tol
      if (eps < floor) {
        printf "FAIL  %-12s %8.0f events/s < floor %8.0f (baseline %s)\n",
               cfg, eps, floor, base[cfg]
        failed = 1
      } else {
        printf "ok    %-12s %8.0f events/s (baseline %s, floor %8.0f)\n",
               cfg, eps, base[cfg], floor
      }
    }
  }
  END {
    best = 0
    for (cfg in current)
      if (cfg ~ /^batch_(8|16|32|64)$/ && current[cfg] > best)
        best = current[cfg]
    if (best <= current["per_ring"]) {
      printf "FAIL  batched path (best %8.0f events/s) no faster than per-ring (%8.0f)\n",
             best, current["per_ring"]
      failed = 1
    }
    exit failed ? 1 : 0
  }
' "$serve_baseline" "$scratch/serve.csv" || serve_status=$?

if [ "$serve_status" -eq 0 ]; then
  echo "serve throughput check passed (tolerance ${tolerance}x)"
elif [ "$check_only" -eq 1 ]; then
  echo "serve throughput below floor but --check-only set: reported, not gated"
else
  echo "serve throughput check FAILED — if the slowdown is intentional," >&2
  echo "refresh tools/bench_serve_throughput.baseline.csv from a quiet machine" >&2
  exit "$serve_status"
fi

# ---- multi-stream serving gate ------------------------------------
# bench_serve_multistream prints the same kind of `CSV,` block with a
# trailing Jain-fairness column; this gate checks, against
# tools/bench_serve_multistream.baseline.csv (config,events_per_s,
# min_fairness rows):
#   * aggregate throughput per config has not fallen below
#     baseline / tolerance;
#   * shed count is exactly 0 for every non-saturated config (the
#     queues are sized to hold the whole stream);
#   * Jain fairness >= the baseline's min_fairness column — an
#     absolute floor, NOT scaled by the tolerance: fairness measures
#     the round-robin fill and per-stream admission control, which
#     machine noise does not excuse.
multi_bench="$build_dir/bench/bench_serve_multistream"
multi_baseline="$repo_root/tools/bench_serve_multistream.baseline.csv"
if [ ! -x "$multi_bench" ]; then
  echo "error: $multi_bench not built (cmake --build $build_dir --target bench_serve_multistream)" >&2
  exit 2
fi
validate_baseline "$multi_baseline"
"$multi_bench" >"$scratch/multi.log" 2>&1 || {
  cat "$scratch/multi.log" >&2
  echo "error: multi-stream serve bench failed" >&2
  exit 2
}
grep '^CSV,' "$scratch/multi.log" >"$scratch/multi.csv" || {
  echo "error: multi-stream bench produced no CSV block" >&2
  exit 2
}
if [ -n "${ADAPT_BENCH_CSV_DIR:-}" ]; then
  cp "$scratch/multi.csv" "$ADAPT_BENCH_CSV_DIR/bench_serve_multistream.csv"
fi

multi_status=0
awk -F, -v tol="$tolerance" '
  NR == FNR { if (FNR > 1) { base[$1] = $2; minfair[$1] = $3 } next }
  $2 == "config" { next }  # header: CSV,config,events_per_s,...,fairness
  {
    cfg = $2; eps = $3 + 0; shed = $6 + 0; fair = $7 + 0
    if (cfg != "saturated" && shed != 0) {
      printf "FAIL  %-20s shed %d events (must be 0 below saturation)\n",
             cfg, shed
      failed = 1
    }
    if (!(cfg in base)) {
      printf "SKIP  %-20s no baseline row\n", cfg
      next
    }
    floor = base[cfg] / tol
    if (eps < floor) {
      printf "FAIL  %-20s %8.0f events/s < floor %8.0f (baseline %s)\n",
             cfg, eps, floor, base[cfg]
      failed = 1
    } else {
      printf "ok    %-20s %8.0f events/s (baseline %s, floor %8.0f)\n",
             cfg, eps, base[cfg], floor
    }
    if (fair < minfair[cfg] + 0) {
      printf "FAIL  %-20s fairness %6.4f < floor %s\n", cfg, fair, minfair[cfg]
      failed = 1
    }
  }
  END { exit failed ? 1 : 0 }
' "$multi_baseline" "$scratch/multi.csv" || multi_status=$?

if [ "$multi_status" -eq 0 ]; then
  echo "multi-stream serving check passed (tolerance ${tolerance}x)"
elif [ "$check_only" -eq 1 ]; then
  echo "multi-stream serving below floor but --check-only set: reported, not gated"
else
  echo "multi-stream serving check FAILED — if the slowdown is intentional," >&2
  echo "refresh tools/bench_serve_multistream.baseline.csv from a quiet machine" >&2
  exit "$multi_status"
fi

# ---- SIMD kernel throughput gate ----------------------------------
# bench_nn_kernels registers one benchmark per dispatched kernel
# variant (BM_U8I8GemmKernel/<isa>, BM_U8RequantKernel/<isa>,
# BM_F32RowBlockKernel/<isa>) plus the dispatch-level int8 paths and
# the whole FP32 forward of both paper networks (BM_BackgroundNetFp32,
# BM_DetaNetFp32: a slow activation or epilogue shows up there, not in
# any single kernel row).
# Each row in tools/bench_nn_kernels.baseline.csv is a deliberately
# conservative items/s floor (well below a quiet-machine run, so
# shared-runner noise does not trip it); throughput below
# floor / tolerance fails.  Variant rows for ISAs the host lacks are
# simply absent from the bench output and reported as skipped — the
# gate works unchanged on AVX2-only or scalar-only hosts.
kernel_bench="$build_dir/bench/bench_nn_kernels"
kernel_baseline="$repo_root/tools/bench_nn_kernels.baseline.csv"
if [ ! -x "$kernel_bench" ]; then
  echo "error: $kernel_bench not built (cmake --build $build_dir --target bench_nn_kernels)" >&2
  exit 2
fi
validate_baseline "$kernel_baseline"
"$kernel_bench" --benchmark_filter='Kernel|Int8Dot|BackgroundNetInt8|Fp32' \
  --benchmark_format=csv >"$scratch/kernels.csv" 2>"$scratch/kernels.log" || {
  cat "$scratch/kernels.log" >&2
  echo "error: kernel bench failed" >&2
  exit 2
}
grep -q '^"BM_' "$scratch/kernels.csv" || {
  echo "error: kernel bench produced no benchmark rows" >&2
  exit 2
}
if [ -n "${ADAPT_BENCH_CSV_DIR:-}" ]; then
  cp "$scratch/kernels.csv" "$ADAPT_BENCH_CSV_DIR/bench_nn_kernels.csv"
fi

kernel_status=0
awk -F, -v tol="$tolerance" '
  NR == FNR { if (FNR > 1) base[$1] = $2; next }
  /^"BM_/ {
    name = $1; gsub(/"/, "", name)
    ips = $7 + 0
    seen[name] = 1
    if (!(name in base)) next  # unbaselined benchmark: informational only
    floor = base[name] / tol
    if (ips < floor) {
      printf "FAIL  %-28s %12.3e items/s < floor %12.3e (baseline %s)\n",
             name, ips, floor, base[name]
      failed = 1
    } else {
      printf "ok    %-28s %12.3e items/s (baseline %s, floor %12.3e)\n",
             name, ips, base[name], floor
    }
  }
  END {
    for (name in base)
      if (!(name in seen))
        printf "SKIP  %-28s variant not supported on this host\n", name
    exit failed ? 1 : 0
  }
' "$kernel_baseline" "$scratch/kernels.csv" || kernel_status=$?

if [ "$kernel_status" -eq 0 ]; then
  echo "kernel throughput check passed (tolerance ${tolerance}x)"
elif [ "$check_only" -eq 1 ]; then
  echo "kernel throughput below floor but --check-only set: reported, not gated"
else
  echo "kernel throughput check FAILED — if the slowdown is intentional," >&2
  echo "refresh tools/bench_nn_kernels.baseline.csv from a quiet machine" >&2
  exit "$kernel_status"
fi

# ---- incremental localizer gate -----------------------------------
# bench_loc_incremental writes name,mean_ms rows (plus informational
# columns) comparing a full batch SkyMap recompute against the
# streaming accumulator's per-ring update and query cost at several
# grid resolutions.  Two checks:
#   * each row's mean stays under baseline * tolerance
#     (tools/bench_loc_incremental.baseline.csv), same ceiling rule as
#     the stage-timing gate;
#   * structurally, inc_update_res<r> must undercut batch_res<r> at
#     every resolution — the machine-independent reason the
#     incremental localizer exists.  A violation means the band
#     enumeration degenerated into a full-grid walk.
loc_bench="$build_dir/bench/bench_loc_incremental"
loc_baseline="$repo_root/tools/bench_loc_incremental.baseline.csv"
if [ ! -x "$loc_bench" ]; then
  echo "error: $loc_bench not built (cmake --build $build_dir --target bench_loc_incremental)" >&2
  exit 2
fi
validate_baseline "$loc_baseline"
loc_bench=$(CDPATH= cd -- "$(dirname -- "$loc_bench")" && pwd)/$(basename -- "$loc_bench")
(cd "$scratch" && "$loc_bench" >loc.log 2>&1) || {
  cat "$scratch/loc.log" >&2
  echo "error: incremental localizer bench failed" >&2
  exit 2
}
loc_csv="$scratch/bench_loc_incremental.csv"
[ -f "$loc_csv" ] || {
  echo "error: bench produced no bench_loc_incremental.csv" >&2
  exit 2
}
if [ -n "${ADAPT_BENCH_CSV_DIR:-}" ]; then
  cp "$loc_csv" "$ADAPT_BENCH_CSV_DIR/"
fi

loc_status=0
awk -F, -v tol="$tolerance" '
  NR == FNR { if (FNR > 1) base[$1] = $2; next }
  FNR > 1 {
    name = $1; mean = $2 + 0
    cur[name] = mean
    if (!(name in base)) {
      printf "SKIP  %-22s no baseline row\n", name
      next
    }
    limit = base[name] * tol
    # Sub-millisecond rows (the per-ring updates) are timer-noise
    # dominated; use an absolute floor instead of a ratio.
    if (limit < 0.5) limit = 0.5
    if (mean > limit) {
      printf "FAIL  %-22s mean %8.3f ms > limit %8.3f ms (baseline %s ms)\n",
             name, mean, limit, base[name]
      failed = 1
    } else {
      printf "ok    %-22s mean %8.3f ms (baseline %s ms, limit %8.3f ms)\n",
             name, mean, base[name], limit
    }
  }
  END {
    for (name in cur) {
      if (name !~ /^batch_res/) continue
      res = substr(name, 10)
      inc = "inc_update_res" res
      if (!(inc in cur)) continue
      if (cur[inc] >= cur[name]) {
        printf "FAIL  %-22s %8.3f ms not below batch recompute %8.3f ms\n",
               inc, cur[inc], cur[name]
        failed = 1
      }
    }
    exit failed ? 1 : 0
  }
' "$loc_baseline" "$loc_csv" || loc_status=$?

if [ "$loc_status" -eq 0 ]; then
  echo "incremental localizer check passed (tolerance ${tolerance}x)"
elif [ "$check_only" -eq 1 ]; then
  echo "incremental localizer over limit but --check-only set: reported, not gated"
else
  echo "incremental localizer check FAILED — if the slowdown is intentional," >&2
  echo "refresh tools/bench_loc_incremental.baseline.csv from a quiet machine" >&2
  exit "$loc_status"
fi

# ---- sanitizer-covered tier-1 tests -------------------------------
if [ "$check_only" -eq 1 ]; then
  echo "sanitizer ctest skipped (--check-only; CI covers it in a dedicated job)"
  exit 0
fi
if [ "${ADAPT_SKIP_ASAN:-0}" = "1" ]; then
  echo "sanitizer ctest skipped (ADAPT_SKIP_ASAN=1)"
  exit 0
fi

asan_dir=${ADAPT_ASAN_DIR:-"$repo_root/build-asan"}
if [ ! -f "$asan_dir/CMakeCache.txt" ]; then
  echo "configuring sanitizer tree at $asan_dir (ADAPT_SANITIZE=ON)"
  cmake -B "$asan_dir" -S "$repo_root" -DADAPT_SANITIZE=ON >/dev/null || {
    echo "error: sanitizer configure failed" >&2
    exit 2
  }
fi
echo "building sanitizer tree..."
cmake --build "$asan_dir" -j "$(nproc 2>/dev/null || echo 1)" >/dev/null || {
  echo "error: sanitizer build failed" >&2
  exit 2
}
echo "running tier-1 tests under ASan+UBSan..."
(cd "$asan_dir" && ctest --output-on-failure) || {
  echo "sanitizer ctest FAILED" >&2
  exit 1
}
echo "sanitizer ctest passed"
exit 0
