GO ?= go
# JSON is the directory make smoke writes BENCH_<exp>.json results into.
JSON ?= .

.PHONY: all build vet test race budget stress repeat fuzz smoke check bench clean

all: check

build:
	$(GO) build ./...

# vet fails on any file gofmt (from GO's own toolchain) would change,
# then runs go vet.
vet:
	@unformatted=$$($$($(GO) env GOROOT)/bin/gofmt -l .) || exit 1; if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# budget runs the allocation-budget tests without the race detector. They
# skip under -race, which drops a random share of sync.Pool puts, so the
# race target above never checks them: the novafs data path (overwrite,
# read, handle stat) and path ops (a path Stat allocates nothing, an Open
# only its handle: TestPathOpAllocationBudget), the blockfs sync path,
# xfslite's byte-free clean cache pages, the stripe tier's pooled batch
# buffers, the pipelined migration copy, a whole 1 MiB Migrate with one and with two
# workers (TestMigrateAllocationBudget), the muxns wire, the journal's
# page-chain encoder (a commit allocates nothing; a snapshot keeps no
# buffer) and replay window, fsrec's reused record batch, core's
# meta-journaled overwrite (0 allocations, its Sync included), hole write,
# read and stat paths, a read spanning two tiers at fan-out width 1
# (TestSpanningReadAllocatesNothing), and core's recovery heap, which must
# not grow with the length of the meta log; and the compaction snapshots
# of Dual.Compact and of novafs, whose allocations must not grow with the
# file count (TestDualCompactAllocationsFlat, TestCompactionAllocationsFlat
# in internal/fsbase, 1,000 vs 10,000 files). The device page tests are not among them: device pages come from
# the bufpool page arena, whose free list the race runtime leaves alone, so
# they run under -race with the rest of the suite.
budget:
	$(GO) test -count=1 -run 'AllocatesNothing|AllocationBudget|AllocBudget|AllocationsFlat' ./internal/fs/novafs ./internal/fs/blockfs ./internal/fs/xfslite ./internal/fs/fsrec ./internal/fsbase ./internal/ec ./internal/core ./internal/server ./internal/journal

# stress repeats the read-vs-migration race tests, the migration-batch
# worker-equivalence test, the tier add/remove-vs-I/O test, the
# breaker/gate concurrency test, the buffer pool's and the page arena's
# parallel Get/Put tests, the stripe tier's stale-buffer test, the
# shared namespace table's concurrent lookup/create/rename test
# (TestNamespaceConcurrentRenames) and the tier write-epoch test (writers
# on two tiers, policy rounds and Mux.Sync at once, then a crash:
# TestBarrierEpochsUnderConcurrentWriters) under the race detector. They are
# timing-dependent: a single pass hides a failure that shows up in a few
# runs out of twenty, so they run twenty times in a row.
stress:
	$(GO) test -race -count=20 -run 'TestReadFastPathRacesMigration|TestRoutedReadsVsMigration|TestConcurrentMigrationStorm|TestMigrationWorkersEquivalent|TestAddTierConcurrentWithIO|TestGuardConcurrent|TestBufpoolConcurrent|TestPageArenaConcurrent|TestStaleBuffersNeverLeak|TestNamespaceConcurrentRenames|TestBarrierEpochsUnderConcurrentWriters' ./internal/core ./internal/guard ./internal/bufpool ./internal/ec ./internal/fsbase

# repeat runs the tests of the short packages three times in a row: the
# native file systems and their shared metadata layer, the journal, the
# extent tree, the page cache and the buffer pool. One pass can hide a
# test that fails only now and then; three cost about 8 s on a 2-core
# host.
repeat:
	$(GO) test -count=3 ./internal/fsbase ./internal/fs/... ./internal/journal ./internal/extent ./internal/pagecache ./internal/bufpool

# fuzz runs each decoder fuzz target for 10 seconds. The muxns frame
# decoders (internal/muxns; the targets sit with its client in
# internal/muxrpc): no input may panic a decoder, allocate past a fixed
# multiple of the frame's length, or decode to a value that re-encodes to
# different bytes. The journal record parser (fsrec.Parse): no record may
# panic it, and every accepted record must re-encode and parse back to
# the same op. The journal replay (FuzzDualReplay): no region bytes may
# panic it, and it applies only records of committed, CRC-valid
# transactions.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzNSRequestDecode$$' -fuzztime=10s ./internal/muxrpc
	$(GO) test -run '^$$' -fuzz '^FuzzNSResponseDecode$$' -fuzztime=10s ./internal/muxrpc
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/fs/fsrec
	$(GO) test -run '^$$' -fuzz '^FuzzDualReplay$$' -fuzztime=10s ./internal/journal

# smoke runs every registered experiment once at smoke size and exits
# nonzero when any fails an acceptance gate (muxbench -h lists them).
smoke:
	$(GO) run ./cmd/muxbench -size smoke -json $(JSON)

# check is the CI gate: compile everything, vet, the full test suite under
# the race detector (the migration and fan-out engines are concurrent;
# -race is load-bearing, not optional), the allocation budgets the race
# build skips, the race stress, the repeated short packages, then the
# smoke experiments.
check: build vet race budget stress repeat smoke

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

clean:
	$(GO) clean ./...
