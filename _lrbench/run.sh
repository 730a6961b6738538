#!/usr/bin/env bash
# Builds the benchmark (this directory, a Go module of its own that imports
# the repository through a local replace) and runs it with the given
# arguments. Run it from the repository root:
#
#   bash _lrbench/run.sh --workload disk10k --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and temporary file stays under .bench_build/ in
# the current directory; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/_lrbench" && go build -o "$out/lrbench" .)
exec "$out/lrbench" "$@"
