#!/usr/bin/env bash
# One-command correctness gate for adaptml.  Runs, in order:
#
#   1. repo lint        (tools/adapt_lint.py — parsing/rand/literal/
#                        test-coverage rules)
#   2. clang-tidy       (profile in .clang-tidy; documented-skip when
#                        clang-tidy is not installed, as on the minimal
#                        gcc-only CI image)
#   3. WERROR build     (-Wall -Wextra -Wconversion -Wshadow
#                        -Wdouble-promotion -Werror over src/)
#   4. ASan+UBSan ctest (full suite under AddressSanitizer, examples
#                        built so example.quickstart runs under it too)
#   5. TSan ctest       (full suite under ThreadSanitizer, std::thread
#                        backend — see core/parallel.hpp for why the
#                        TSan build swaps out libgomp)
#   6. TSan serve+fault focus (shard/router/supervised-router/fault-
#                        matrix tests repeated for more interleavings;
#                        a filter pattern that matches no test fails)
#   7. thread-safety     (Clang Thread Safety Analysis over src/ with
#                        -Werror=thread-safety{,-beta}; the configure
#                        step itself proves the gate is live via a
#                        compile-fail probe.  Documented-skip when no
#                        clang++ is installed, like tidy)
#   8. fuzz-smoke        (the checked-in seed corpus must match a fresh
#                        make_fuzz_corpus run byte for byte; then the
#                        tests/fuzz harnesses for the two parsers, model
#                        files and ring files, replay it plus ~60 s of
#                        deterministic seeded mutations each, under
#                        ASan+UBSan)
#
# Exits non-zero on the first failing stage.  Budget: ~10 minutes on
# a multicore dev box; the dominant costs are the sanitizer builds and
# the TSan ctest pass, all of which parallelize (bench/ is excluded
# from the gate builds, and examples/ from all but the ASan tree, to
# keep them lean).
#
# NOTE: gate build trees (checked/sanitized/werror) are for
# correctness only — never take timing baselines from them; see
# tools/check_timing_regression.sh.
#
# Usage: tools/check_static_analysis.sh [--stage NAME]... [build-root]
#   --stage NAME  run only the named stage(s); repeatable.  Names:
#                 lint tidy werror asan tsan tsan-serve thread-safety
#                 fuzz-smoke.  This is how the CI workflow fans the
#                 gate out across jobs without duplicating any stage
#                 logic.
#   build-root defaults to .gate-builds/ under the repo root (kept out
#   of the way of the normal build/ tree).

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
stages=""
build_root=""
while [ $# -gt 0 ]; do
  case "$1" in
    --stage)
      [ $# -ge 2 ] || { echo "error: --stage needs a name" >&2; exit 2; }
      stages="${stages} $2"
      shift 2
      ;;
    --stage=*)
      stages="${stages} ${1#--stage=}"
      shift
      ;;
    -h|--help)
      sed -n '2,48p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *)
      [ -z "${build_root}" ] || { echo "error: unexpected arg $1" >&2; exit 2; }
      build_root="$1"
      shift
      ;;
  esac
done
[ -n "${stages}" ] || stages="lint tidy werror asan tsan tsan-serve thread-safety fuzz-smoke"
[ -n "${build_root}" ] || build_root="${repo}/.gate-builds"
jobs="$(nproc 2>/dev/null || echo 2)"

# TSan only audits code that actually runs multi-threaded; on 1-2 core
# CI boxes force a real thread pool through the std backend.
tsan_threads=4

stage() { printf '\n=== %s ===\n' "$*"; }

fail() { printf 'FAIL: %s\n' "$*" >&2; exit 1; }

want() {
  case " ${stages} " in *" $1 "*) return 0 ;; esac
  return 1
}

# The TSan tree is shared by the full-suite stage and the serve+fault
# focus stage, so either can run standalone (a lone `--stage
# tsan-serve` still gets a built tree; re-running is an incremental
# no-op).
build_tsan_tree() {
  cmake -B "${build_root}/tsan" -S "${repo}" \
    -DADAPT_SANITIZE=thread -DADAPT_CHECKED=ON \
    -DADAPT_BUILD_BENCH=OFF -DADAPT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${build_root}/tsan" -j"${jobs}" >/dev/null \
    || fail "TSan build failed"
}

# --- 1. repo lint -----------------------------------------------------
if want lint; then
  stage "lint (tools/adapt_lint.py)"
  python3 "${repo}/tools/adapt_lint.py" --repo "${repo}" \
    || fail "lint findings above"
fi

# --- 2. clang-tidy ----------------------------------------------------
if want tidy; then
  stage "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B "${build_root}/tidy" -S "${repo}" \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DADAPT_BUILD_BENCH=OFF -DADAPT_BUILD_EXAMPLES=OFF >/dev/null
    # shellcheck disable=SC2046
    clang-tidy -p "${build_root}/tidy" --quiet \
      $(find "${repo}/src" -name '*.cpp') \
      || fail "clang-tidy findings above"
  else
    echo "SKIPPED: clang-tidy not installed on this image (profile is" \
         "checked in at .clang-tidy; run on a clang-equipped host)."
  fi
fi

# --- 3. warning-hardened build ---------------------------------------
if want werror; then
  stage "WERROR build (-Wall -Wextra -Wconversion -Wshadow -Wdouble-promotion)"
  cmake -B "${build_root}/werror" -S "${repo}" \
    -DADAPT_WERROR=ON -DADAPT_CHECKED=ON \
    -DADAPT_BUILD_BENCH=OFF -DADAPT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${build_root}/werror" -j"${jobs}" 2>&1 | tail -3 \
    || fail "WERROR build failed"
fi

# --- 4. ASan+UBSan tests ---------------------------------------------
if want asan; then
  stage "AddressSanitizer ctest"
  cmake -B "${build_root}/asan" -S "${repo}" \
    -DADAPT_SANITIZE=address -DADAPT_CHECKED=ON \
    -DADAPT_BUILD_BENCH=OFF -DADAPT_BUILD_EXAMPLES=ON >/dev/null
  cmake --build "${build_root}/asan" -j"${jobs}" >/dev/null \
    || fail "ASan build failed"
  (cd "${build_root}/asan" && \
    ctest --output-on-failure -j"${jobs}" --timeout 1800) \
    || fail "tests failed under ASan+UBSan"
fi

# --- 5. TSan tests ----------------------------------------------------
if want tsan; then
  stage "ThreadSanitizer ctest (std::thread backend, ${tsan_threads} threads)"
  build_tsan_tree
  (cd "${build_root}/tsan" && \
    ADAPT_NUM_THREADS="${tsan_threads}" \
      ctest --output-on-failure -j1 --timeout 1800) \
    || fail "tests failed under TSan"
fi

# --- 6. serving-layer + fault-injection TSan focus --------------------
# The serve subsystem is the one place where producer threads, the
# workers, the stall watchdog, and shared model state all race by
# design, and the fault matrix deliberately provokes every recovery
# path (retries, checksum quarantine, the watchdog).  The full ctest
# pass above runs each of these tests once; here they are repeated to
# give TSan more interleavings to object to.

# Run a gtest binary under a filter, repeated.  gtest passes silently
# when a filter matches nothing, so every ':'-separated pattern must
# first list at least one test: a renamed suite cannot drop out of the
# focus unnoticed.
run_focus() {
  local binary="$1" filter="$2" repeat="$3" pattern listed patterns
  IFS=':' read -r -a patterns <<< "${filter}"
  for pattern in "${patterns[@]}"; do
    listed="$("${binary}" --gtest_list_tests --gtest_filter="${pattern}" \
      | grep -c '^  ' || true)"
    if [ "${listed}" -eq 0 ]; then
      echo "error: gtest filter '${pattern}' matches no test in ${binary}" >&2
      return 1
    fi
  done
  "${binary}" --gtest_filter="${filter}" --gtest_repeat="${repeat}" \
    --gtest_brief=1
}

if want tsan-serve; then
  stage "TSan serve+fault focus (shards + router + supervised router + fault matrix, repeated)"
  build_tsan_tree
  run_focus "${build_root}/tsan/tests/adapt_serve_tests" \
    'ShardQueue.*:StreamRouter.*:SupervisedRouter.*:ConcurrentInference.*:FloodHarness.*' 3 \
    || fail "serve tests failed under TSan"
  run_focus "${build_root}/tsan/tests/adapt_fault_tests" '*' 2 \
    || fail "fault-injection tests failed under TSan"
  # Per-stream localizers are built on the router's workers, and every
  # SkyGrid they build goes through the shared pixel-centre registry.
  run_focus "${build_root}/tsan/tests/adapt_loc_tests" 'SkyGrid.*' 3 \
    || fail "sky-grid table registry tests failed under TSan"
fi

# --- 7. Clang thread-safety analysis ----------------------------------
# The core::sync capability annotations (src/core/sync.hpp) are only
# checked by Clang; under GCC they expand to nothing.  This stage
# compiles src/ with the annotations enforced as errors.  The CMake
# configure step arms the gate with a pair of try_compile probes — an
# unguarded-access probe that must FAIL and a guarded twin that must
# compile — so a misconfigured toolchain cannot produce a silently
# green stage.
if want thread-safety; then
  stage "thread-safety (Clang TSA, -Werror=thread-safety)"
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B "${build_root}/tsa" -S "${repo}" \
      -DCMAKE_CXX_COMPILER=clang++ -DADAPT_THREAD_SAFETY=ON \
      -DADAPT_BUILD_BENCH=OFF -DADAPT_BUILD_EXAMPLES=OFF >/dev/null \
      || fail "thread-safety configure failed (probe gate not armed?)"
    cmake --build "${build_root}/tsa" -j"${jobs}" 2>&1 | tail -3 \
      || fail "thread-safety analysis found lock-discipline violations"
  else
    echo "SKIPPED: clang++ not installed on this image (the annotations" \
         "are checked in at src/core/sync.hpp; run on a clang-equipped" \
         "host — CI runs this stage with clang)."
  fi
fi

# --- 8. parser fuzz smoke ---------------------------------------------
# First the checked-in seed corpus must be current: make_fuzz_corpus
# regenerates it into a scratch directory and any diff against
# tests/fuzz/corpus/ fails the stage (a format change commits its new
# seeds; an unchanged format reproduces every seed byte for byte).
# Then each harness replays the corpus and spends
# ADAPT_FUZZ_SMOKE_SECS (default 60) on deterministic seeded mutations
# of it, under ASan+UBSan.  Under Clang the same sources build as real
# libFuzzer targets for longer offline campaigns; the smoke stage uses
# the standalone driver so it runs identically on the gcc-only image.
if want fuzz-smoke; then
  smoke_secs="${ADAPT_FUZZ_SMOKE_SECS:-60}"
  stage "fuzz-smoke (corpus check, ${smoke_secs}s/harness, ASan+UBSan, seeded mutations)"
  cmake -B "${build_root}/fuzz" -S "${repo}" \
    -DADAPT_SANITIZE=address -DADAPT_CHECKED=ON -DADAPT_BUILD_FUZZERS=ON \
    -DADAPT_BUILD_BENCH=OFF -DADAPT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${build_root}/fuzz" -j"${jobs}" \
    --target fuzz_nn_model fuzz_rings make_fuzz_corpus >/dev/null \
    || fail "fuzz harness build failed"
  regenerated="${build_root}/fuzz/corpus-check"
  rm -rf "${regenerated}"
  "${build_root}/fuzz/tests/fuzz/make_fuzz_corpus" "${regenerated}" >/dev/null \
    || fail "make_fuzz_corpus failed"
  diff -r "${repo}/tests/fuzz/corpus" "${regenerated}" \
    || fail "tests/fuzz/corpus/ is stale: run make_fuzz_corpus tests/fuzz/corpus and commit the diff"
  for pair in "fuzz_nn_model nn_model" "fuzz_rings rings"; do
    set -- ${pair}
    harness="$1"; corpus="${repo}/tests/fuzz/corpus/$2"
    [ -d "${corpus}" ] || fail "missing seed corpus ${corpus}"
    "${build_root}/fuzz/tests/fuzz/${harness}" \
      --smoke "${smoke_secs}" "${corpus}" \
      || fail "${harness} crashed (minimize the reproducer and pin it as a regression test)"
  done
fi

stage "all gates passed"
