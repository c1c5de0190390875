#!/usr/bin/env bash
# Builds nwserve and the benchmark program from the checkout it is run in,
# then runs the program with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload warm_hit --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and every file a run writes stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/nwserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (cmd/nwserve and go.mod not found)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -o "$build/bin/nwserve" ./cmd/nwserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -nwserve "$build/bin/nwserve" -workdir "$build/run" "$@"
