#!/usr/bin/env bash
# Builds the benchmark and cmd/paperexp from this checkout and runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload long_lived --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build in the
# checkout: binaries, the Go build cache and the benchmark's scratch
# files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/paperexp" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a bufsim checkout (go.mod, cmd/paperexp, perfbench)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/home/go"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0

go build -o "$out/paperexp" ./cmd/paperexp
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
