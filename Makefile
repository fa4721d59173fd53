.PHONY: check build test race bench bench-serve bench-fault bench-mitigate bench-parallel bench-multimode bench-station bench-fleet

check:
	sh scripts/check.sh

# The concurrency-bearing packages, raced by both `make check` and CI:
# the Monte-Carlo harness, the packed decoder and its shard pool, the
# SEU protection layer shared by every decoder, the cross-decoder fault
# oracle that exercises the shard pool under injection, the batching
# decode server with its scheduler and worker pool, the multi-code mux
# with its lazily built per-code pools, the streaming station front end
# whose group submissions fan out goroutine-per-frame into that server,
# and the fleet routing tier whose hedges, requeues and health-driven
# ring rebuilds race against backend death.
race:
	go test -race ./internal/sim/... ./internal/batch/... ./internal/serve/... ./internal/registry/... ./internal/protect/... ./internal/fault/... ./internal/station/... ./internal/fleet/...

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench . -benchtime 2x -run NONE .

# Serving benchmark: the load generator against an in-process server
# (full TCP + protocol + scheduler stack), sequential baseline first,
# perf trajectory seeded into BENCH_serve.json.
bench-serve:
	go run ./cmd/ldpcload -inproc -seqbaseline -clients 16 -frames 512 -json BENCH_serve.json

# Fault-injection benchmark: BER/FER degradation and iteration-count
# inflation versus SEU upset rate, seeded into BENCH_fault.json.
bench-fault:
	go run ./cmd/ldpcfault -testcode -frames 4000 -json BENCH_fault.json

# Mitigation benchmark: the bench-fault sweep rerun with parity- and
# SECDED-protected message memories over identical fault plans, plus the
# hwsim scrub/storage cost, seeded into BENCH_mitigate.json.
bench-mitigate:
	go run ./cmd/ldpcmitigate -testcode -frames 2000 -json BENCH_mitigate.json

# Multi-mode benchmark: mixed traffic over every registry code —
# interleaved v1/v2 frames round-robin across the catalog against one
# in-process multi-mode server — per-code throughput, batch fill and
# shed seeded into BENCH_multimode.json with the host CPU topology.
bench-multimode:
	go run ./cmd/ldpcload -inproc -codes c2,c2s,ds12,ds23,ds45 -clients 16 -frames 500 -json BENCH_multimode.json

# Ground-station ingest benchmark: the full sync → derandomize →
# decode → CADU pipeline graded over the scenario battery (clean,
# slips, rotation, burst, drift, combined) on the C2 code at QPSK —
# locked throughput, re-lock latency in symbols and CADU loss per
# scenario seeded into BENCH_station.json; fails if any acceptance
# gate (zero corrupt/extra CADUs, ≥ 99% recovery, re-lock ≤ 2 frames)
# does not hold.
bench-station:
	go run ./cmd/ldpcstation -frames 40 -json BENCH_station.json

# Fleet resilience benchmark: mixed-code load through the internal/fleet
# router over in-process backends — scaling sweep N ∈ {1,2,4}, then a
# chaos phase that abruptly kills one of four backends at 25% of the
# run and restarts it at 50%, recording the kill/recovery timeline into
# BENCH_fleet.json; fails unless the gates hold (zero corrupt frames,
# ≤ 1 requeue per claimed frame, client p99 under the router deadline,
# throughput recovered to ≥ 3/4 of the pre-kill rate).
bench-fleet:
	go run ./cmd/ldpcload -fleetbench -codes all -clients 8 -frames 600 -json BENCH_fleet.json

# Parallel-scaling benchmark: the sharded wide-lane super-batch decoder
# over the shards × superbatch × lanes matrix (frames/s, ns/frame,
# single-batch p50 latency), seeded into BENCH_parallel.json with the
# host's CPU topology — a shards sweep only climbs with GOMAXPROCS > 1;
# the lanes sweep widens each kernel strip to up to 8 words (512 frames
# per decode at superbatch 8).
bench-parallel:
	go run ./cmd/ldpcthroughput -parallel -shards 1,2,4,8 -superbatches 1,4,8 -lanes 1,2,4,8 -mintime 400ms -json BENCH_parallel.json
