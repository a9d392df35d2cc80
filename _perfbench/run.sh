#!/bin/sh
# Builds the served-cascade benchmark from this checkout's sources and
# runs it with the given flags. Run it from the repository root:
#
#   sh _perfbench/run.sh --workload ward_f32 --seed 1 --seconds 10 --trace 0
#
# The build, its caches and the Go tool's own state all stay under
# .bench_build in the repository root.
set -eu
here=_perfbench
if [ ! -f go.mod ] || [ ! -f "$here/go.mod" ]; then
	echo "perfbench: run from the repository root: both go.mod and $here/go.mod are needed" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/cache" "$out/gopath" "$out/home"
export GOCACHE="$out/cache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
