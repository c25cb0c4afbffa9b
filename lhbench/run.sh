#!/usr/bin/env bash
# Builds the LakeHarbor benchmark from this checkout's sources and runs it.
# Run from the repository root; all arguments go to the benchmark, e.g.
#
#	bash lhbench/run.sh --workload q5-io --seed 1 --seconds 20 --trace 0
#	bash lhbench/run.sh --smoke
#
# Build outputs, the Go build cache, and run scratch files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
(cd "$root/lhbench" && go build -o "$out/lhbench" .) >&2
exec "$out/lhbench" "$@"
