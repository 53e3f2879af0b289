#!/usr/bin/env sh
# Every gate of tools/bench_gate.awk fires on a synthetic regression.
# Runs no bench: each checked-in baseline, written as its bench's own
# rows, must pass, and one copy doctored per gate must fail it.  ctest
# runs this as tools.timing_gate_fires.
set -eu

tools=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

cp "$tools/bench_table1_2_timing.baseline.csv" "$work/table.csv"
cp "$tools/bench_loc_incremental.baseline.csv" "$work/loc.csv"
awk -F, 'NR == 1 { print "CSV,config,events_per_s,p50_ms,p99_ms,shed,fairness"; next }
  { print "CSV," $1 "," $2 ",1,1,0," $3 }' \
  "$tools/bench_serve_multistream.baseline.csv" >"$work/serve.csv"
awk -F, 'NR == 1 { print "name,iterations,real_time,cpu_time,time_unit,bytes_per_second,items_per_second"; next }
  { print "\"" $1 "\",1,1,1,ns,," $2 }' \
  "$tools/bench_nn_kernels.baseline.csv" >"$work/kernels.csv"

# doctor NEW SRC SEXPR: a copy of SRC with one row edited by sed.
doctor() {
  sed "$3" "$work/$2" >"$work/$1"
  if cmp -s "$work/$2" "$work/$1"; then
    echo "error: '$3' edits nothing in $2" >&2
    exit 2
  fi
}

# gate WANT PATTERN BENCH ROWS [CHECK_ONLY]: the comparator must exit
# WANT and print a line matching PATTERN.
gate() {
  rc=0
  awk -F, -v bench="$3" -v tol=1.5 -v check_only="${5:-0}" \
    -f "$tools/bench_gate.awk" "$tools/$3.baseline.csv" "$work/$4" \
    >"$work/out" 2>&1 || rc=$?
  if [ "$rc" -eq "$1" ] && grep -q -- "$2" "$work/out"; then
    echo "ok    $3 $4 check_only=${5:-0}: exit $rc, /$2/"
  else
    echo "FAIL  $3 $4 check_only=${5:-0}: exit $rc, want $1 and /$2/"
    cat "$work/out"
    failures=$((failures + 1))
  fi
}

gate 0 '^ok' bench_table1_2_timing table.csv
gate 0 '^ok' bench_serve_multistream serve.csv
gate 0 '^ok' bench_nn_kernels kernels.csv
gate 0 '^ok' bench_loc_incremental loc.csv

# Table I/II stage ceiling; reported, not gated, under --check-only.
doctor stage.csv table.csv 's/^Bkg NN Inference,1.2,/Bkg NN Inference,2.0,/'
gate 1 '^FAIL  Bkg NN Inference' bench_table1_2_timing stage.csv
gate 0 '^FAIL  Bkg NN Inference' bench_table1_2_timing stage.csv 1

doctor floor.csv serve.csv 's/^CSV,batch_4,349711,/CSV,batch_4,200000,/'
gate 1 '^FAIL  batch_4 ' bench_serve_multistream floor.csv
doctor shed.csv serve.csv 's/^CSV,batch_2,318342,1,1,0,/CSV,batch_2,318342,1,1,5,/'
gate 1 '^FAIL  batch_2 .*shed 5' bench_serve_multistream shed.csv
doctor fair.csv serve.csv 's/^CSV,streams_1,410521,1,1,0,0.99/CSV,streams_1,410521,1,1,0,0.9/'
gate 1 '^FAIL  streams_1 .*fairness' bench_serve_multistream fair.csv
doctor batched.csv serve.csv 's/^CSV,per_ring,273122,/CSV,per_ring,500000,/'
gate 1 '^FAIL  batched ' bench_serve_multistream batched.csv

doctor kernel.csv kernels.csv 's/^"BM_Int8DotFused",1,1,1,ns,,360000/"BM_Int8DotFused",1,1,1,ns,,100000/'
gate 1 '^FAIL  BM_Int8DotFused' bench_nn_kernels kernel.csv

doctor ceiling.csv loc.csv 's/^batch_res1.0,26.525,/batch_res1.0,60,/'
gate 1 '^FAIL  batch_res1.0 ' bench_loc_incremental ceiling.csv
doctor incremental.csv loc.csv 's/^batch_res2.0,6.644,/batch_res2.0,0.004,/'
gate 1 '^FAIL  inc_update_res2.0 .*batch recompute' bench_loc_incremental incremental.csv

# touched/ring is a count, so it gates under --check-only too.
doctor touched.csv loc.csv 's/^inc_update_res1.0,0.008,20672,523,/inc_update_res1.0,0.008,20672,524,/'
gate 1 '^FAIL  inc_update_res1.0 .*touched/ring 524' bench_loc_incremental touched.csv
gate 1 '^FAIL  inc_update_res1.0 .*touched/ring 524' bench_loc_incremental touched.csv 1

# A bench that printed no rows is a structural fault.
head -n 1 "$work/table.csv" >"$work/empty.csv"
gate 2 'printed no rows' bench_table1_2_timing empty.csv

[ "$failures" -eq 0 ] || { echo "$failures gate check(s) did not behave" >&2; exit 1; }
echo "every gate fires"
