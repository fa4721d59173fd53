#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it with the
# given arguments, e.g.
#
#   bash ldpcbench/run.sh --workload bulk-fixed18 --seed 1 --seconds 15 --trace 0
#
# Build caches, the binary and trace files stay inside the repository,
# under .bench_build/. The build fails, and so does this script, outside
# a full checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/ldpcbench" .)
cd "$here/.."
exec "$out/ldpcbench" "$@"
