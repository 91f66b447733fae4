#!/usr/bin/env bash
# Build the benchmark and petitd from source, then run the benchmark.
# Run from the root of a checkout:
#   bash bench/e2e/run.sh --workload analyze-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
dune build --root . bench/e2e/main.exe bench/e2e/expected.json bin/petitd.exe 1>&2
# the commit, for the result file's provenance; empty outside a git checkout
commit=""
if [ -e .git ]; then commit=$(git rev-parse HEAD 2>/dev/null || true); fi
PETIT_COMMIT="$commit" exec ./_build/default/bench/e2e/main.exe "$@"
