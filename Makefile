.PHONY: check build test race bench bench-fault bench-mitigate bench-station

check:
	sh scripts/check.sh

# The concurrency-bearing packages, raced by both `make check` and CI:
# the Monte-Carlo harness, the packed decoder and its shard pool, the
# SEU protection layer shared by every decoder, the cross-decoder fault
# oracle that exercises the shard pool under injection, the batching
# decode server whose workers gather their own batches, the multi-code mux
# with its lazily built per-code pools and the completions its decode
# workers run, the streaming station front end whose group submissions
# keep a whole group in flight in that server,
# and the fleet routing tier whose hedges, requeues and health-driven
# weight changes race against backend death. The race detector does not
# instrument assembly, and on an AVX2 CPU every lane width decodes
# through it, so the same packages run once more under the purego tag,
# where every lane width takes the generic Go kernels and their reads
# and writes, across shards and across the workers of serve, the
# registry pools, the station, the fleet and fault.CrossCheck's
# sharded decoders, stay checked.
RACE_PKGS = ./internal/sim/... ./internal/batch/... ./internal/serve/... ./internal/registry/... ./internal/protect/... ./internal/fault/... ./internal/station/... ./internal/fleet/...

race:
	go test -race $(RACE_PKGS)
	go test -race -tags purego $(RACE_PKGS)

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench . -benchtime 2x -run NONE .

# Fault-injection benchmark: BER/FER degradation and iteration-count
# inflation versus SEU upset rate, seeded into BENCH_fault.json.
bench-fault:
	go run ./cmd/ldpcfault -testcode -frames 4000 -json BENCH_fault.json

# Mitigation benchmark: the bench-fault sweep rerun with parity- and
# SECDED-protected message memories over identical fault plans, plus the
# hwsim scrub/storage cost, seeded into BENCH_mitigate.json.
bench-mitigate:
	go run ./cmd/ldpcmitigate -testcode -frames 2000 -json BENCH_mitigate.json

# Ground-station ingest benchmark: the full sync → derandomize →
# decode → CADU pipeline graded over the scenario battery (clean,
# slips, rotation, burst, drift, combined) on the C2 code at QPSK —
# locked throughput, re-lock latency in symbols and CADU loss per
# scenario seeded into BENCH_station.json; fails if any acceptance
# gate (zero corrupt/extra CADUs, ≥ 99% recovery, re-lock ≤ 2 frames)
# does not hold.
bench-station:
	go run ./cmd/ldpcstation -frames 40 -json BENCH_station.json
