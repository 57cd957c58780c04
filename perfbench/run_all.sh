#!/usr/bin/env bash
# Every workload, end-to-end (--trace 0) then traced (--trace 1),
# for one seed; exits nonzero if any gate fails:
#
#   bash perfbench/run_all.sh [SEED] [SECONDS]
set -u
seed=${1:-1}
seconds=${2:-30}
status=0
for w in serve-sim serve-exec mc-dpor fuzz-swarm; do
  for t in 0 1; do
    bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" || status=1
  done
done
exit $status
