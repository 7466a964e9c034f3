#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   sh perfbench/run.sh --workload sim-overload --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under .bench_build/ in the working directory.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
