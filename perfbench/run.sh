#!/bin/sh
# Build the benchmark harness from source, then run it:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the
# harness's result line.  The dune cache is disabled so that the build
# writes only under _build/ in this checkout.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune is not on PATH" >&2
  exit 3
fi
if ! DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
