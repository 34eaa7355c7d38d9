#!/usr/bin/env bash
# Build the program and the benchmark from this checkout, then run one
# benchmark workload:
#   bash psabench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "psabench: run from the root of a psaflow checkout" >&2
  exit 2
fi
dune build --root . ./psabench/main.exe ./bin/psaflow.exe >&2
exec ./_build/default/psabench/main.exe "$@"
