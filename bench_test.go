// Benchmarks regenerating the paper's evaluation: one per table and figure
// (E1–E4), one per ablation (A1–A6), E5 and E7–E9 beyond the paper, plus
// per-operation microbenchmarks of the Mux fast paths. cmd/muxbench runs
// every registered experiment (bench.Experiments) with its gates.
//
// The E/A benchmarks execute a whole experiment per iteration and report
// the experiment's own metrics via b.ReportMetric (virtual-clock figures,
// or wall-clock figures for E5 and E7–E9) — ns/op for them measures only
// the harness. Run with:
//
//	go test -bench=. -benchmem
package muxfs_test

import (
	"fmt"
	"testing"

	"muxfs"
	"muxfs/internal/bench"
)

func BenchmarkE1MigrationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mux[0][1].MBps, "sim-mux-pm-ssd-MB/s")
		b.ReportMetric(r.Strata[0][1].MBps, "sim-strata-pm-ssd-MB/s")
		b.ReportMetric(r.SpeedupPMtoSSD, "speedup-x")
	}
}

func BenchmarkE2DeviceThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE2()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.Speedup, "speedup-"+row.Device+"-x")
		}
	}
}

func BenchmarkE3ReadLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE3()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.OverheadPct, "overhead-"+row.Device+"-pct")
		}
	}
}

func BenchmarkE4WriteThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE4()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.OverheadPct, "overhead-"+row.Device+"-pct")
		}
	}
}

func BenchmarkA1OCCvsLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.ConcurrentWritesOCC), "concurrent-writes")
		b.ReportMetric(float64(r.ContendedOCC.Retries), "occ-retries")
	}
}

func BenchmarkA2MetadataAffinity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Slowdown, "syncall-slowdown-x")
	}
}

func BenchmarkA3SCMCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup, "cache-speedup-x")
		b.ReportMetric(100*r.HitRate, "hit-rate-pct")
	}
}

func BenchmarkA4Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Rows)), "policies")
	}
}

func BenchmarkA5BLTOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BytesPer4K, "blt-bytes-per-4K")
	}
}

// BenchmarkMigrationThroughput compares the parallel migration engine at
// 1, 4, and 8 workers on a multi-file workload spread across 3 tiers, with
// per-device wall-clock service-time governors (see bench.RunE5). Placement
// must be identical at every worker count.
func BenchmarkMigrationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE5()
		if err != nil {
			b.Fatal(err)
		}
		if !r.Deterministic {
			b.Fatal("post-migration placement diverged across worker counts")
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.WallMs, fmt.Sprintf("wall-ms-%dw", row.Workers))
		}
		b.ReportMetric(r.SpeedupAt4, "speedup-4w-x")
		b.ReportMetric(r.SpeedupAt8, "speedup-8w-x")
	}
}

// --- Per-operation microbenchmarks of the Mux fast paths. ---

// newBenchSystem builds the three-tier stack. With meta set, Mux journals
// its own metadata on a PM meta device, as perfbench's workloads do, so
// every write buffers BLT records and every Sync group-commits them.
func newBenchSystem(b *testing.B, pol muxfs.Policy, meta bool) *muxfs.System {
	b.Helper()
	sys, err := muxfs.New(muxfs.Config{
		Tiers: []muxfs.TierSpec{
			{Kind: muxfs.PM, Name: "pmem0"},
			{Kind: muxfs.SSD, Name: "ssd0"},
			{Kind: muxfs.HDD, Name: "hdd0"},
		},
		Policy:      pol,
		MetaJournal: meta,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkMuxRead1B(b *testing.B)  { benchMuxRead(b, 1, false) }
func BenchmarkMuxWrite4K(b *testing.B) { benchMuxWrite(b, 0, false) }
func BenchmarkMuxStat(b *testing.B)    { benchMuxStat(b, false) }

// The Meta variants run with the meta journal on: a cached 4 KiB read, a
// 4 KiB overwrite with a Sync every 64th write (perfbench's fsync rate),
// and a path Stat.
func BenchmarkMuxMetaRead4K(b *testing.B)  { benchMuxRead(b, 4096, true) }
func BenchmarkMuxMetaWrite4K(b *testing.B) { benchMuxWrite(b, 64, true) }
func BenchmarkMuxMetaStat(b *testing.B)    { benchMuxStat(b, true) }

func benchMuxRead(b *testing.B, size int, meta bool) {
	sys := newBenchSystem(b, muxfs.NewPinnedPolicy(0), meta)
	f, err := sys.FS.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, int64(i*size)%(1<<20)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMuxWrite writes 4 KiB blocks round-robin over a 16 MiB file
// (appends on the first pass, overwrites after), calling Sync after every
// syncEvery-th write when syncEvery > 0.
func benchMuxWrite(b *testing.B, syncEvery int, meta bool) {
	sys := newBenchSystem(b, muxfs.NewPinnedPolicy(0), meta)
	f, err := sys.FS.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	block := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%4096) * 4096 // stay inside 16 MiB
		if _, err := f.WriteAt(block, off); err != nil {
			b.Fatal(err)
		}
		if syncEvery > 0 && (i+1)%syncEvery == 0 {
			if err := f.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchMuxStat(b *testing.B, meta bool) {
	sys := newBenchSystem(b, nil, meta)
	f, err := sys.FS.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.FS.Stat("/bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMuxMigrate1MB(b *testing.B) {
	sys := newBenchSystem(b, muxfs.NewPinnedPolicy(0), false)
	f, err := sys.FS.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
		b.Fatal(err)
	}
	pm, ssd := sys.TierID("pmem0"), sys.TierID("ssd0")
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := pm, ssd
		if i%2 == 1 {
			src, dst = ssd, pm
		}
		if _, err := sys.FS.Migrate("/bench", src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7StripedRead(b *testing.B) {
	// Whole-experiment benchmark: wall-clock read/write/fsync of files
	// striped across all three tiers, serial dispatch vs parallel fan-out
	// (the reported speedups are the metric; ns/op measures the harness).
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ReadSpeedup, "read-speedup-x")
		b.ReportMetric(r.WriteSpeedup, "write-speedup-x")
		b.ReportMetric(r.SyncSpeedup, "sync-speedup-x")
	}
}

func BenchmarkA6Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OverheadPct, "replication-overhead-pct")
	}
}

func BenchmarkE8MetaHot(b *testing.B) {
	// Whole-experiment benchmark: hot metadata + cached-read scaling under
	// the sharded namespace and lock-free read path (aggregate ops/sec at
	// 16 goroutines is the metric; ns/op measures the harness).
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OpsAt16, "ops-at-16/s")
		b.ReportMetric(r.ScaleAt16, "scale-at-16-x")
	}
}

func BenchmarkE9TelemetryOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OverheadPct, "telemetry-overhead-pct")
		b.ReportMetric(r.OnOpsPerSec, "ops/s-telemetry-on")
		b.ReportMetric(r.OffOpsPerSec, "ops/s-telemetry-off")
	}
}
