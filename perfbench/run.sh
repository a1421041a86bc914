#!/usr/bin/env bash
# Build the benchmark program and the imageeye binary from this checkout,
# then run the program with the given arguments:
#
#   bash perfbench/run.sh --workload sweep|stream|serve|raster \
#     --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository.  Build output goes to stderr so
# the last line on stdout stays the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of an imageeye checkout" >&2
  exit 2
fi
dune build --root . ./perfbench/perfbench.exe ./bin/imageeye.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
