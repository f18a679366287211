#!/bin/sh
# Build the benchmark of record from source (release profile) and run
# it from the root of the source tree; every argument passes through,
# e.g.  sh bench/e2e/run.sh --workload count-lusearch --seed 11
# Must be started from the root of the source tree. Without the
# libraries beside it the build fails and so does this script.
set -e
exec dune exec --root . --profile release --display quiet bench/e2e/main.exe -- "$@"
