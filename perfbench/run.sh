#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload optimize --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the Go configuration directory
# (telemetry counters) live under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)
digest=$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit -X main.sourceDigest=$digest" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
