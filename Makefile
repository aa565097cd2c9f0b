GO ?= go

.PHONY: all build vet test race budget stress fuzz smoke check bench clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# budget runs the allocation-budget tests without the race detector. They
# skip under -race, which drops a random share of sync.Pool puts, so the
# race target above never checks them: the device page pool, the blockfs
# sync path, the stripe tier's pooled batch buffers, the pipelined
# migration copy and the muxns wire.
budget:
	$(GO) test -count=1 -run 'AllocatesNothing|AllocationBudget|AllocBudget|FeedOtherDevice' ./internal/device ./internal/fs/blockfs ./internal/ec ./internal/core ./internal/server

# stress repeats the read-vs-migration race tests, the migration-batch
# worker-equivalence test, the breaker/gate concurrency test, the buffer
# pool's parallel Get/Put test and the stripe tier's stale-buffer test
# under the race detector. They are timing-dependent: a single pass hides
# a failure that shows up in a few runs out of twenty, so they run twenty
# times in a row.
stress:
	$(GO) test -race -count=20 -run 'TestReadFastPathRacesMigration|TestRoutedReadsVsMigration|TestConcurrentMigrationStorm|TestMigrationWorkersEquivalent|TestGuardConcurrent|TestBufpoolConcurrent|TestStaleBuffersNeverLeak' ./internal/core ./internal/guard ./internal/bufpool ./internal/ec

# fuzz runs each decoder fuzz target for 10 seconds. The muxns frame
# decoders (internal/muxns; the targets sit with its client in
# internal/muxrpc): no input may panic a decoder, allocate past a fixed
# multiple of the frame's length, or decode to a value that re-encodes to
# different bytes. The journal record parser (fsrec.Parse): no record may
# panic it, and every accepted record must re-encode and parse back to
# the same op.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzNSRequestDecode$$' -fuzztime=10s ./internal/muxrpc
	$(GO) test -run '^$$' -fuzz '^FuzzNSResponseDecode$$' -fuzztime=10s ./internal/muxrpc
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/fs/fsrec

# smoke runs the E6 fault drill, the E7 fan-out comparison, the E8
# metadata-scaling sweep, the E9 telemetry-overhead gate, and the E10
# mirror-routing comparison end to end: injected device faults, breaker
# quarantine, replica fallback, and reintegration must all hold (the drill
# is virtual-time deterministic, so it doubles as a regression oracle), the
# parallel data path must stay byte-identical and placement-deterministic
# while beating serial dispatch, the sharded-namespace/lock-free-read
# concurrency must keep every cached read byte-identical with balanced
# Statfs accounting, telemetry-on must cost no more than 5% of
# telemetry-off throughput (-e9gate exits nonzero past the budget; -json
# writes BENCH_e9.json with the per-tier latency quantiles), and routed
# mirror reads must beat the migrate-to-PM placement while a browned-out
# mirror degrades without a single user-visible error (BENCH_e10.json).
# E11 runs the bounded crash-point sweep: every metadata op, and one
# multi-move policy round, crashed after every durability step, remounted,
# and held to the consistency contract (muxbench exits nonzero on any
# violation), plus smoke-size recovery and checkpoint timings
# (BENCH_e11.json). E12 runs the bounded scale-out
# stripe drill over real loopback muxns RPC: throughput must grow with node
# count, a 3+1 set loses a node mid-read with zero user-visible errors,
# rebuild restores redundancy (scrub clean), and 4+1 raw usage stays
# within the 1.3x gate (muxbench exits nonzero on any violation;
# BENCH_e12.json). E13 runs the bounded network-front-end drill over real
# loopback muxns RPC: batched+coalesced frames must beat one-op-per-frame,
# well-behaved clients' p99 must hold while one aggressor hammers the
# server (DRR + token buckets), the attr/readdir cache must serve the stat
# storm (negative entries included), and the server counters must cost no
# more than 5% (muxbench exits nonzero on any violation; BENCH_e13.json).
# E14 runs the bounded multi-tenant isolation + autotuning drill: a quota
# policy + MGLRU cache must hold a victim tenant's p99 within 2x of
# running alone under a cold-scan aggressor, and the feedback controller
# must climb a deliberately mis-tuned LRU to within the gate of the
# hand-tuned config with a monotone accepted-score audit trail (muxbench
# exits nonzero on any violation; BENCH_e14.json).
smoke:
	$(GO) run ./cmd/muxbench -exp e6
	$(GO) run ./cmd/muxbench -exp e7
	$(GO) run ./cmd/muxbench -exp e8
	$(GO) run ./cmd/muxbench -exp e9 -e9gate 5 -json .
	$(GO) run ./cmd/muxbench -exp e10 -json .
	$(GO) run ./cmd/muxbench -exp e11 -e11smoke -json .
	$(GO) run ./cmd/muxbench -exp e12 -e12smoke -json .
	$(GO) run ./cmd/muxbench -exp e13 -e13smoke -json .
	$(GO) run ./cmd/muxbench -exp e14 -e14smoke -json .

# check is the CI gate: compile everything, vet, the full test suite under
# the race detector (the migration and fan-out engines are concurrent;
# -race is load-bearing, not optional), the allocation budgets the race
# build skips, the race stress, then the smoke experiments.
check: build vet race budget stress smoke

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

clean:
	$(GO) clean ./...
