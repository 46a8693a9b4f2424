#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; every argument passes through to the benchmark:
#
#   bash perfbench/run.sh --workload worker64 --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under the output directory
# ($CARGO_TARGET_DIR, or .bench_build): the Go build cache, the binary,
# temporary sweep caches, spans and CPU profiles.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a checkout of the simulator" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOWORK=off GOTOOLCHAIN=local
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
