#!/usr/bin/env bash
# Builds the fdc benchmark program from source, then runs it; every
# argument passes through to perf.exe (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload compile-mix --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -eo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The shared build cache lives outside the checkout, so it stays off.
dune build --root . --cache=disabled -j 2 ./perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
