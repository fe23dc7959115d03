#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The binary, the Go build cache, the go command's own config and
# telemetry files, and the run's stores all stay under .bench_build in
# the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
