#!/usr/bin/env bash
# Builds the benchmark and the volaserved binary from the checkout's source,
# then runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-grid --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout (Go build cache included), and nothing is fetched: the module
# needs only the standard library and the repository's own packages.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=-buildvcs=false
mkdir -p "$out/bin" "$GOTMPDIR" "$TMPDIR"

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/volaserved" repro/cmd/volaserved
) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -scratch "$out/tmp" -commit "$commit" "$@"
