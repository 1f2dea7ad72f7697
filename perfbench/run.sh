#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload sweep-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), including the Go build
# cache, so the first run in a fresh checkout compiles the standard
# library and later runs reuse it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the repository (no go.mod here)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
