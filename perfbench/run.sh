#!/usr/bin/env bash
# Build the service and the benchmark from source, then run one
# measurement:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.  The build stays inside the
# checkout: dune's shared cache is off.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found on PATH" >&2
  exit 1
fi
dune build --root . --cache=disabled ./perfbench/perfbench.exe ./bin/sider_cli.exe >&2
exec ./_build/default/perfbench/perfbench.exe --server ./_build/default/bin/sider_cli.exe "$@"
