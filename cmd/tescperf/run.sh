#!/usr/bin/env bash
# Builds tescperf from the checkout this script sits in and runs it with
# the given arguments from the checkout root, e.g.
#
#   bash cmd/tescperf/run.sh --workload correlate-h3 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/cmd/tescperf" && go build -o "$out/tescperf" .)
cd "$root"
exec "$out/tescperf" "$@"
