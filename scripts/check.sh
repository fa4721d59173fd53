#!/bin/sh
# Tier-1 verification: build, formatting (fails when `gofmt -l .` lists
# any file), vet, static analysis (when staticcheck is installed — CI
# installs it, minimal containers may not have it), the full test suite,
# vet and tests of the benchmark module (its own go.mod, outside the
# root ./...), and the race pass over the concurrency-bearing packages
# (`make race`, whose package list CI's race job shares).
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
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test ./...
(cd ldpcbench && go vet ./... && go test ./...)
make race
