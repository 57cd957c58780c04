#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr; the
# last line of stdout is the JSON result. A failed build exits 3
# without printing a result.
set -u
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a source checkout" >&2
  exit 3
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2 || exit 3
exec ./_build/default/perfbench/main.exe "$@"
