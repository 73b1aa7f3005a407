#!/usr/bin/env bash
# The benchmark's one command: build the program from the checkout's source
# and run it from the checkout's root, so every path it touches is inside.
# The build cache and the binary live in .bench_build/ at the root, and so
# does everything else the go command might write (GOPATH, its telemetry).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$build/memverify-bench" .)
cd "$root"
exec "$build/memverify-bench" "$@"
