#!/usr/bin/env bash
# Entry point of the serving benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload conn-warm --seed 1 --seconds 20 --trace 0
#
# Builds the ftroute daemon and the benchmark driver from this checkout
# into .bench_build (Go build cache and temporary files included, so
# nothing is written outside the checkout), then runs the driver. See
# perfbench/README.md.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ftroute" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ftroute and perfbench/ must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go build -buildvcs=false -o "$out/bin/ftroute" ./cmd/ftroute
(cd perfbench && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -ftroute "$out/bin/ftroute" -work "$out/work" "$@"
