#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json): build the
# harness from source inside the checkout, then run it with the arguments
# given. Everything the build writes — compiled packages, the module cache
# directory, the binary, the span files — stays under bench/out/.
#
#   bash bench/run.sh --workload bus_fanin --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOSUMDB=off
# The harness is its own module; "repro => ../" in go.mod points at the
# system under test, so the build fails (non-zero exit) without the
# repository around it.
(cd "$here" && go build -o "$out/bench" .) >&2
exec "$out/bench" --out "$out" "$@"
