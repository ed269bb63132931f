#!/usr/bin/env bash
# Builds topoperf from source and runs it with the given arguments, from
# the root of a gputopo checkout:
#
#   bash cmd/topoperf/run.sh --workload fleet-1000 --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, event logs, spans and profiles.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/topoperf"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$src" && go build -o "$out/topoperf" .) >&2
exec "$out/topoperf" -out "$out" "$@"
