#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout,
# keeping the Go build cache, the binary and every scratch file under
# .bench_build/ there. Arguments follow the benchmark-runner convention:
#
#   bash bench/run.sh --workload lib-file --seed 1 --seconds 24 --trace 0
#
# and the last line of standard output is one JSON object: with --trace 0
# the end-to-end metrics, with --trace 1 the per-layer ones (spans are
# written to .bench_build/trace/). Without the repository's sources next to
# bench/ the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD/.bench_build"
mkdir -p "$root/tmp"
export GOCACHE="$root/gocache" GOPATH="$root/gopath" TMPDIR="$root/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go build -C bench -o "$root/bench" . >&2

args=(-json -dir "$root/run")
while [ $# -gt 0 ]; do
	case "$1" in
	--trace)
		if [ "${2:-0}" = 1 ]; then
			args+=(-trace "$root/trace")
		fi
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$root/bench" "${args[@]}"
