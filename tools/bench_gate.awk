# The comparator behind tools/check_timing_regression.sh: gates one
# bench's rows against its baseline.
#
#   awk -F, -v bench=NAME -v tol=T [-v check_only=1] \
#       -f tools/bench_gate.awk tools/NAME.baseline.csv ROWS
#
# Both files are CSV whose first row is a header; a baseline row is
# name,value[,...].  ROWS is the bench's CSV; for bench_serve_multistream
# it is the bench's stdout, whose rows are the lines tagged `CSV,`.
# Every row is gated on its value column (items_per_second, column 7, for
# bench_nn_kernels; column 2 otherwise):
#   ceiling  bench_table1_2_timing, bench_loc_incremental (ms):
#            value <= max(baseline * tol, 0.5); sub-millisecond rows are
#            timer noise, so they get an absolute limit, not a ratio.
#   floor    bench_serve_multistream, bench_nn_kernels (per second):
#            value >= baseline / tol.
# Extras on the same rows:
#   serve  shed == 0 below saturation (the queues hold the whole stream);
#          fairness >= the baseline's min_fairness, not scaled by tol
#          (machine noise does not excuse unfair admission); the best of
#          batch_8/16/32 and streams_1 beats per_ring.
#   loc    inc_update_res<r> below batch_res<r>; each (inc|serve)_update
#          row's touched/ring (column 4, a count fixed by the seeded rings)
#          at or below its baseline.
# check_only=1 prints every failure but gates only touched/ring, the one
# check noise cannot move.  Exit 0 pass, 1 a gated check failed, 2 the
# baseline does not parse or the bench printed no rows.

function fail(msg, hard) {
  printf "FAIL  %s\n", msg
  if (hard || !check_only) failed = 1; else excused = 1
}
function check(ok, msg, hard) {
  if (ok) printf "ok    %s\n", msg; else fail(msg, hard)
}

BEGIN {
  ceiling = bench ~ /^bench_(table1_2_timing|loc_incremental)$/
  unit = ceiling ? " ms" : "/s"
  col = bench == "bench_nn_kernels" ? 7 : 2
  serve = bench == "bench_serve_multistream"
  loc = bench == "bench_loc_incremental"
}
FILENAME == ARGV[1] {
  if (FNR == 1) next
  if ($1 == "" || $2 + 0 != $2) broken = 1
  base[$1] = $2; aux[$1] = serve ? $3 : $4; nbase++
  next
}
serve && !sub(/^CSV,/, "") { next }
!nrows++ { next }
{
  name = $1; gsub(/"/, "", name); v = $col + 0; cur[name] = v
  if (serve && name != "saturated" && $5 + 0 != 0)
    fail(sprintf("%-28s shed %d events (must be 0 below saturation)", name, $5))
  if (loc && name ~ /^(inc|serve)_update_res/)
    if (!(name in aux) || aux[name] == "-")
      fail(sprintf("%-28s no touched/ring baseline", name), 1)
    else
      check($4 + 0 <= aux[name] + 0,
            sprintf("%-28s touched/ring %s (ceiling %s)", name, $4, aux[name]), 1)
  if (!(name in base)) { printf "SKIP  %-28s no baseline row\n", name; next }
  limit = ceiling ? base[name] * tol : base[name] / tol
  if (ceiling && limit < 0.5) limit = 0.5
  check(ceiling ? v <= limit : v >= limit, sprintf("%-28s %g%s (baseline %s, %s %g)",
        name, v, unit, base[name], ceiling ? "limit" : "floor", limit))
  if (serve && $6 + 0 < aux[name] + 0)
    fail(sprintf("%-28s fairness %s < floor %s", name, $6, aux[name]))
}
END {
  if (broken || !nbase) {
    printf "error: %s does not parse (need a header, then name,value rows)\n",
      ARGV[1] > "/dev/stderr"
    exit 2
  }
  if (nrows < 2) { printf "error: %s printed no rows\n", bench > "/dev/stderr"; exit 2 }
  for (name in base) if (!(name in cur)) printf "SKIP  %-28s not in the bench output\n", name
  if (serve) {
    for (name in cur)
      if (name ~ /^(batch_(8|16|32)|streams_1)$/ && cur[name] > best) best = cur[name]
    check(best > cur["per_ring"], sprintf("%-28s best batched %g/s vs per_ring %g/s",
          "batched", best, cur["per_ring"]))
  }
  if (loc) for (name in cur) {
    inc = "inc_update_res" substr(name, 10)
    if (name ~ /^batch_res/ && inc in cur)
      check(cur[inc] < cur[name],
            sprintf("%-28s %g ms vs batch recompute %g ms", inc, cur[inc], cur[name]))
  }
  if (excused) printf "%s over limit, but --check-only: reported, not gated\n", bench
  exit failed ? 1 : 0
}
