#!/usr/bin/env bash
# Builds the cotedbench binary from this checkout and runs it; the
# arguments go to the binary. Run it from the repository root:
#
#   bash cotedbench/run.sh --workload warm-advisor --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and the traced runs' span files all go under
# $CARGO_TARGET_DIR when it is set, else under .bench_build/.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# Keep every file the Go toolchain writes (build cache, module cache,
# environment and telemetry files under the config directory) inside $out.
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/cotedbench" && go build -o "$out/cotedbench" .)
exec "$out/cotedbench" --span-dir "$out/cotedbench-spans" "$@"
