#!/usr/bin/env bash
# Builds the benchmark from this tree's sources and runs it.
#
#   bash _perfbench/run.sh --workload serve-sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, the
# forest fixture and span dumps all live under .bench_build/perfbench,
# so the benchmark writes nothing outside the tree. Outside an mpcdvfs
# tree the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -build "$out" "$@"
