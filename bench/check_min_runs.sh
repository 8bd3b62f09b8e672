#!/bin/sh
# Runs each bench given on the command line at SPTA_BENCH_RUNS=40, below
# every one's sample-size floor: each must exit 2 with a message naming
# its minimum run count, never abort on an analysis contract.
status=0
for bench in "$@"; do
  err=$(SPTA_BENCH_RUNS=40 "$bench" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ] || ! printf '%s' "$err" | grep -q "needs at least [0-9][0-9]* runs"; then
    echo "FAIL: $bench exited $rc: $err"
    status=1
  fi
done
exit $status
