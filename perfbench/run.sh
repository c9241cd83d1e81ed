#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the root of an imdpp checkout:
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and any Go tool state go under
# .bench_build/ in the checkout. The benchmark itself is a single
# process: the script replaces itself with it (exec).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of an imdpp checkout" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
