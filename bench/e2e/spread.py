#!/usr/bin/env python3
"""Repeat the end-to-end benchmark over seeds and summarise each metric.

Runs `bash bench/e2e/run.sh` once per seed (sequentially, so runs never
compete for cores), reads the JSON object on the last line of each run,
and prints every run, then, per workload and metric, the median, the
quartiles, and the quartile spread (q3 - q1) / median.  The spread is
the stability measure the benchmark's bounds are judged by; the runs
and the summary are what the baseline records.

Usage, from the repo root:
  python3 bench/e2e/spread.py [--workload W ...] [--runs 10]
                              [--first-seed 1] [--seconds S] [--json FILE]
The workloads and run length default to those in BENCHMARK.json.  A run
that exits non-zero or reports correct=false stops the script with exit
code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "bench/e2e/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{workload} seed {seed}: run failed "
                 f"(exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    with open("BENCHMARK.json", encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    summary = {}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload:14s} seed {seed:<4d} " + " ".join(
                f"{name}={value:.6g}" for name, value in runs[-1].items()),
                flush=True)
        summary[workload] = {"runs": runs}
        for name in runs[0]:
            s = summarise([r[name] for r in runs])
            summary[workload][name] = s
            print(f"{workload:14s} {name:18s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.3f}", flush=True)
    if args.json:
        # The last run's record names the host, ISA and thread budget.
        with open("build-bench/BENCH_e2e.json", encoding="utf-8") as rec:
            record = json.load(rec)
        fingerprint = {k: record[k] for k in
                       ("host", "cpu_features", "kernel_isa", "max_threads",
                        "omp_num_threads", "git")}
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"runs": args.runs, "first_seed": args.first_seed,
                       "seconds": args.seconds, "fingerprint": fingerprint,
                       "workloads": summary},
                      out, indent=2, sort_keys=True)
            out.write("\n")


if __name__ == "__main__":
    main()
