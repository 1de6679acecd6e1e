#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the unmodified cmd/qozd and the
# benchmark command into .bench_build/ inside the checkout (nothing is written
# outside it: Go's build cache, module path and temp dir are moved there too),
# then runs the benchmark with the caller's arguments. Both builds happen
# before the benchmark process starts, so they are not part of setup_s.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -o "$build/qozd" ./cmd/qozd)
(cd "$root/bench" && go build -o "$build/qozbench" .)
cd "$root"
exec "$build/qozbench" -qozd "$build/qozd" -work "$build/work" -out "$root/bench/out" "$@"
