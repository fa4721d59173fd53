#!/bin/sh
# Tier-1 verification: build, formatting (fails when `gofmt -l .` lists
# any file), vet (also for arm64, where the assembly's generic fallback
# must cover every declaration), static analysis (when staticcheck is
# installed — CI installs it, minimal containers may not have it), the
# full test suite, once more under the purego tag so the generic strip
# kernels stay tested on AVX2 hosts, vet and tests of the benchmark
# module (its own go.mod, outside the root ./...), and the race pass
# over the concurrency-bearing packages (`make race`, whose package list
# CI's race job shares).
set -eux

cd "$(dirname "$0")/.."

go build ./...
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go vet ./...
GOARCH=arm64 go vet ./...
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test ./...
go test -tags purego ./...
(cd ldpcbench && go vet ./... && go test ./...)
make race
