#!/bin/sh
# Tier-1 verification: build, vet, static analysis (when staticcheck is
# installed — CI installs it, minimal containers may not have it), the
# full test suite, and the race pass over the concurrency-bearing
# packages (`make race`, whose package list CI's race job shares).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test ./...
make race
