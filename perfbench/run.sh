#!/usr/bin/env bash
# Builds the benchmark from source, then runs it; every argument is
# passed to it.  Run from anywhere inside the repository, e.g.
#   bash perfbench/run.sh --workload fig7-quick --seed 42 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The shared dune cache lives outside the checkout; keep every build
# artefact inside it.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
