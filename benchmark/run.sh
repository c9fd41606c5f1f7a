#!/bin/sh
# run.sh — build the end-to-end benchmark from source and run it.
#
# Usage (from anywhere; arguments go to the benchmark binary):
#   sh benchmark/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (benchmark/go.mod) that imports the
# simulator through a `replace sora => ../` directive, so it needs the
# repository's go.mod and internal/ next to it. Every build output — the
# binary, the Go build cache, compiler temporaries, trace artifacts —
# stays under .bench_build at the repository root, and the user's Go
# environment file is not consulted.
set -eu
cd "$(dirname "$0")/.."
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache"
GOMODCACHE="$out/gomodcache"
GOTMPDIR="$out/tmp"
GOENV=off
GOTOOLCHAIN=local
GOWORK=off
GOFLAGS=
export GOCACHE GOMODCACHE GOTMPDIR GOENV GOTOOLCHAIN GOWORK GOFLAGS
(cd benchmark && go build -o "$out/sorabenchmark" .)
exec "$out/sorabenchmark" "$@"
