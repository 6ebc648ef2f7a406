#!/usr/bin/env bash
# Builds the benchmark and lia_cli from source in this checkout, then runs
# the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload pl40-dense --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-check
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/lia_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
