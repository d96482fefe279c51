#!/usr/bin/env bash
# Builds the interaction benchmark from source and runs it. Run it from the
# root of the repository; every flag is passed through, e.g.
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 10 --trace 0
#
# The build cache and the binary live in .bench_build/ under the current
# directory, so a run reads and writes nothing outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
