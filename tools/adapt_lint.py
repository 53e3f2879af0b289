#!/usr/bin/env python3
"""Repo lint gate for adaptml.

Fast, dependency-free checks for rules the compiler cannot enforce.
Run from anywhere; exits non-zero when any rule fires:

  1. no-naked-parse: std::atof / std::strtod (and their unqualified
     forms) are banned outside the core CLI layer.  Both silently
     return 0.0 on garbage; flight-facing inputs must go through the
     strict core::parse_double / env parsers, which reject trailing
     junk and non-finite values.
  2. no-std-rand: std::rand / srand are banned everywhere.  All
     randomness flows through core::Rng so trials stay deterministic
     and seedable.
  3. no-float-literal-in-physics: src/physics/ computes in double
     precision end to end; a stray 1.0f silently truncates a constant
     (or an intermediate, via promotion rules) to 24-bit mantissa.
  4. test-coverage: every src/**/*.cpp must have a test file whose
     name mentions its stem, or an entry in COVERAGE_ALLOWLIST naming
     where its behavior is actually exercised.
  5. no-intrinsics-outside-kernels: x86 SIMD intrinsics (_mm*) and
     vector types (__m128/__m256/__m512) are confined to
     src/nn/kernels/.  Every vector kernel carries a bit-identity
     obligation against its scalar reference; scattering intrinsics
     elsewhere would scatter that obligation too, and the rest of the
     codebase must stay portable to non-x86 hosts.
  6. no-batch-skymap-in-serve: SkyMap::compute is banned in
     src/serve/.  A full-grid recompute on the serving hot path
     reintroduces the O(pixels * rings) stall the streaming
     accumulator exists to avoid; the serve layer localizes through
     loc::IncrementalLocalizer (serve/stream_localizer.hpp) only.
  7. no-naked-mutex: std::mutex / std::shared_mutex /
     std::condition_variable, the std lock RAII types, and the C++20
     coordination primitives (std::latch, std::barrier, the
     semaphores) are banned outside src/core/sync.hpp.  Locking must
     go through the core::sync capability wrappers so the Clang
     thread-safety gate (tools/check_static_analysis.sh --stage
     thread-safety) can see every acquisition; a raw std primitive is
     a lock the analysis cannot check.
  8. golden-drift-guard: a commit touching a scenario golden report
     (tests/scenario/golden/) must also touch the scenario configs,
     the scenario/matrix engine, or the golden comparator in the SAME
     commit.  Goldens only move when the behavior they pin moves; a
     golden-only commit is someone silencing a red gate.  Inspects the
     HEAD commit via git (best-effort: skipped outside a git
     checkout).
  9. one-serve-forward: src/serve/ reaches the networks only through
     pipeline::Models::infer_batch, the one batched forward (one
     feature matrix per flush, both networks, per-ring thresholds).
     The per-ring logits / classify / predict calls, the prepared
     burst path (*_prepared) and the raw-feature entry points
     (*_for_features) are banned there: a second forward in the
     serving layer is a second path to keep bit-identical.

Usage: tools/adapt_lint.py [--repo DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

# Files allowed to call the raw C parsing functions: the strict
# parsers themselves, and the env-var fallback parsing in parallel.hpp
# (strtol only, but kept here so the rule reads as "the parsing
# layer").
PARSE_ALLOWLIST = {
    "src/core/cli.hpp",
    "src/core/cli.cpp",
}

# src/**/*.cpp files with no same-stem test file, mapped to the test
# that actually covers them (kept next to the rule so a new uncovered
# file is a conscious, reviewable decision).
COVERAGE_ALLOWLIST = {
    "src/core/table.cpp": "tests/core/table_test.cpp",
    "src/eval/model_provider.cpp": "tests/eval/run_trials_test.cpp",
    "src/eval/trial.cpp": "tests/eval/trial_containment_test.cpp",
    "src/loc/least_squares.cpp": "tests/loc/localizer_test.cpp",
    "src/nn/activations.cpp": "tests/nn/layers_test.cpp",
    "src/nn/linear.cpp": "tests/nn/layers_test.cpp",
    "src/nn/batchnorm.cpp": "tests/nn/layers_test.cpp",
    "src/nn/mlp.cpp": "tests/nn/trainer_test.cpp",
    "src/nn/sequential.cpp": "tests/nn/layers_test.cpp",
    "src/nn/optimizer.cpp": "tests/nn/loss_optimizer_test.cpp",
    "src/pipeline/ml_localizer.cpp": "tests/pipeline/ml_localizer_test.cpp",
    "src/recon/error_propagation.cpp": "tests/recon/reconstruction_test.cpp",
    "src/recon/event_reconstruction.cpp": "tests/recon/reconstruction_test.cpp",
    "src/sim/background.cpp": "tests/sim/pileup_test.cpp",
    "src/sim/grb_source.cpp": "tests/sim/source_test.cpp",
    "src/nn/kernels/registry.cpp": "tests/nn/kernels_test.cpp",
    "src/nn/kernels/scalar.cpp": "tests/nn/kernels_test.cpp",
    "src/nn/kernels/avx2.cpp": "tests/nn/kernels_test.cpp",
    "src/nn/kernels/avx512.cpp": "tests/nn/kernels_test.cpp",
    "src/quant/fake_quant.cpp": "tests/quant/quant_property_test.cpp",
    "src/quant/qat_io.cpp": "tests/quant/quantized_mlp_fused_test.cpp",
    "src/quant/qat_linear.cpp": "tests/quant/quant_property_test.cpp",
    "src/trigger/rate_trigger.cpp": "tests/trigger/trigger_test.cpp",
}

NAKED_PARSE = re.compile(r"\b(?:std::)?(atof|strtod)\s*\(")
STD_RAND = re.compile(r"\b(?:std::)?s?rand\s*\(")
# A float literal: digits with an f/F suffix (1.0f, .5f, 1e3f, 2f).
FLOAT_LITERAL = re.compile(r"[0-9.]([eE][-+]?[0-9]+)?[fF]\b")
# An x86 intrinsic call or vector type (SSE/AVX/AVX-512 families).
INTRINSIC = re.compile(r"\b(?:_mm(?:256|512)?_[a-z0-9_]+|__m(?:64|128|256|512)[di]?)\b")
BATCH_SKYMAP = re.compile(r"\bSkyMap::compute\s*\(")
# A network call other than Models::infer_batch (rule 9).
SIDE_FORWARD = re.compile(
    r"(?:\.|->)(?:logits|classify|predict)\s*\("
    r"|\b\w+_(?:prepared|for_features)\s*\(")
# A raw std synchronization primitive (type use or header include) —
# everything the core::sync capability layer wraps.
NAKED_MUTEX = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock|latch|barrier|counting_semaphore|binary_semaphore)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable|latch|"
    r"barrier|semaphore)>")
# The one place raw primitives are allowed: the wrapper layer itself.
MUTEX_ALLOWLIST = {
    "src/core/sync.hpp",
}
LINE_COMMENT = re.compile(r"//.*$")
STRING = re.compile(r'"(?:[^"\\]|\\.)*"')

# Rule 8: paths whose change justifies a golden-report update — the
# scenario definitions, the engine/serve/matrix code that produces the
# reports, and the comparator that defines "within tolerance".
GOLDEN_PREFIX = "tests/scenario/golden/"
GOLDEN_JUSTIFIES = (
    "tests/scenario/configs/",
    "src/scenario/",
    "src/fault/",
    "src/serve/",
    "src/trigger/",
    "src/sim/",
    "tools/adaptctl.cpp",
    "tools/check_scenario_golden.py",
)


def check_golden_drift(repo: pathlib.Path) -> list[str]:
    """Rule 8: golden files may only change alongside the code or
    configs that define them.  Best-effort — returns nothing when git
    or history is unavailable (tarball builds, shallow oddities)."""
    try:
        out = subprocess.run(
            ["git", "log", "-1", "--name-only", "--pretty=format:"],
            cwd=repo, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return []
    if out.returncode != 0:
        return []
    changed = [line.strip() for line in out.stdout.splitlines()
               if line.strip()]
    goldens = [p for p in changed if p.startswith(GOLDEN_PREFIX)]
    if not goldens:
        return []
    if any(p.startswith(GOLDEN_JUSTIFIES) for p in changed):
        return []
    return [
        f"{p}: golden report changed with no accompanying scenario "
        "config / engine / comparator change in the same commit — "
        "goldens only move when the behavior they pin moves "
        "[golden-drift-guard]"
        for p in goldens
    ]


def strip_noise(line: str) -> str:
    """Drop string contents and // comments so literals inside either
    don't trip the code rules (block comments are rare enough in this
    codebase that per-line stripping suffices)."""
    return LINE_COMMENT.sub("", STRING.sub('""', line))


def iter_source(repo: pathlib.Path, *globs: str):
    for pattern in globs:
        for path in sorted(repo.glob(pattern)):
            yield path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo", default=pathlib.Path(__file__).resolve().parent.parent,
        type=pathlib.Path, help="repository root (default: tools/..)")
    args = parser.parse_args()
    repo = args.repo.resolve()

    findings: list[str] = []

    # Rules 1-3: line scans.
    code_globs = ("src/**/*.cpp", "src/**/*.hpp", "examples/*.cpp",
                  "bench/*.cpp", "tools/*.cpp")
    for path in iter_source(repo, *code_globs):
        rel = path.relative_to(repo).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for ln, raw in enumerate(lines, 1):
            line = strip_noise(raw)
            if rel not in PARSE_ALLOWLIST and NAKED_PARSE.search(line):
                findings.append(
                    f"{rel}:{ln}: naked atof/strtod — use core::parse_double "
                    "(strict, rejects trailing junk) [no-naked-parse]")
            if STD_RAND.search(line):
                findings.append(
                    f"{rel}:{ln}: std::rand breaks deterministic trials — "
                    "use core::Rng [no-std-rand]")
            if rel.startswith("src/physics/") and FLOAT_LITERAL.search(line):
                findings.append(
                    f"{rel}:{ln}: float literal in double-precision physics "
                    "code [no-float-literal-in-physics]")
            if (not rel.startswith("src/nn/kernels/")
                    and INTRINSIC.search(line)):
                findings.append(
                    f"{rel}:{ln}: SIMD intrinsics belong in src/nn/kernels/ "
                    "(dispatched, bit-identical to scalar) "
                    "[no-intrinsics-outside-kernels]")
            if rel.startswith("src/serve/") and BATCH_SKYMAP.search(line):
                findings.append(
                    f"{rel}:{ln}: full-grid SkyMap::compute on the serving "
                    "hot path — stream rings through "
                    "loc::IncrementalLocalizer instead "
                    "[no-batch-skymap-in-serve]")
            if rel.startswith("src/serve/") and SIDE_FORWARD.search(line):
                findings.append(
                    f"{rel}:{ln}: network call outside "
                    "Models::infer_batch in the serving layer — batch "
                    "through infer_batch, the one serve forward "
                    "[one-serve-forward]")
            if rel not in MUTEX_ALLOWLIST and NAKED_MUTEX.search(line):
                findings.append(
                    f"{rel}:{ln}: raw std sync primitive — use the "
                    "core::sync capability types (core/sync.hpp) so the "
                    "thread-safety gate can check the lock discipline "
                    "[no-naked-mutex]")

    # Rule 4: test coverage by stem.
    test_names = " ".join(
        p.name for p in iter_source(repo, "tests/**/*_test.cpp"))
    for path in iter_source(repo, "src/**/*.cpp"):
        rel = path.relative_to(repo).as_posix()
        stem = path.stem
        if stem in test_names:
            continue
        mapped = COVERAGE_ALLOWLIST.get(rel)
        if mapped is None:
            findings.append(
                f"{rel}: no tests/**/*{stem}*_test.cpp and no "
                "COVERAGE_ALLOWLIST entry [test-coverage]")
        elif not (repo / mapped).is_file():
            findings.append(
                f"{rel}: COVERAGE_ALLOWLIST points at missing {mapped} "
                "[test-coverage]")

    # Rule 8: golden drift.
    findings.extend(check_golden_drift(repo))

    for f in findings:
        print(f)
    n_files = sum(1 for _ in iter_source(repo, *code_globs))
    print(f"adapt_lint: {len(findings)} finding(s) across {n_files} files",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
