#!/usr/bin/env bash
# Builds the benchmark and the sessiond daemon from this checkout, then
# runs one benchmark run:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
go build -C "$root/perfbench" -o "$out/sessiond" sessionproblem/cmd/sessiond >&2
exec "$out/perfbench" --sessiond "$out/sessiond" --work "$out" "$@"
