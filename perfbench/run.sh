#!/usr/bin/env bash
# Builds predperf, simworker, predserve and the benchmark from source,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache included, stays under
# .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/predperf" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the repository root (go.mod, cmd/predperf and perfbench/ must be there)" >&2
    exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry and env file inside
# the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/predperf ./cmd/simworker ./cmd/predserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work-$$" "$@"
