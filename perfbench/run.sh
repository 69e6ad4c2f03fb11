#!/usr/bin/env bash
# Builds the benchmark and cmd/tracecheck from the checkout's sources, then
# runs the benchmark with the given arguments. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/serve" ]; then
	echo "perfbench: no morphcache sources in $root; run from the root of a checkout" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME moves the go command's telemetry counters into the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/tracecheck" morphcache/cmd/tracecheck)
exec "$out/perfbench" -tracecheck "$out/tracecheck" -workdir "$out/tmp" "$@"
