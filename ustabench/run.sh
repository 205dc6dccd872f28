#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash ustabench/run.sh --workload table1-cli --seed 42 --seconds 30 --trace 0
#
# Run from the repository root. Build products, the Go build cache and the
# traced run's span files stay under .bench_build/ in that root, so the
# benchmark reads and writes nothing outside the checkout. Outside a full
# checkout (no root go.mod) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/ustabench" ]]; then
	echo "ustabench: run from the repository root (go.mod and ustabench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-config" "$out/go-path"
# XDG_CONFIG_HOME keeps the go command's own state (env file, telemetry
# counters) in the checkout too; GOPATH gives it a home even without $HOME.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/go-config" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

# Build to a private name and rename, so a concurrent run never executes a
# half-written binary.
tmp="$out/ustabench.$$"
(cd "$root/ustabench" && go build -o "$tmp" .)
mv -f "$tmp" "$out/ustabench"
exec "$out/ustabench" "$@"
