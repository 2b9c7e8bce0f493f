#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fresh-misses --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and any
# span files stay under .bench_build/ in that root, so a run reads and
# writes nothing outside the checkout. A tree without the repository's
# packages fails to build, and the script exits nonzero without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Fall back to the official Go distribution's default install location.
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
export GOPATH="$out/gopath"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
