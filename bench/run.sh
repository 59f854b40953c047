#!/usr/bin/env bash
# Builds phasebench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload simpoint_vli --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the
# service workload's temporary store) stays under .bench_build/ at the
# repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/phasebench" ./phasebench)
exec "$build/phasebench" "$@"
