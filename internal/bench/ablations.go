package bench

import (
	"fmt"
	"io"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/policy"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// A1Result compares the OCC Synchronizer against traditional lock-based
// migration (§2.4) under racing writers.
type A1Result struct {
	// Quiescent migration of a 16 MiB file (no writers): OCC's bookkeeping
	// overhead relative to a plain locked copy.
	QuiescentOCCMs  float64
	QuiescentLockMs float64
	// Contended: a writer dirties one block after every copy round.
	ContendedOCC         core.OCCStats
	ConcurrentWritesOCC  int // writes that ran during the OCC migration window
	ConcurrentWritesLock int // by construction 0: the lock excludes them
}

// RunA1 measures OCC vs lock-based migration.
func RunA1() (*A1Result, error) {
	const fileSize = 16 << 20
	res := &A1Result{}

	migrate := func(lock bool, interleave bool) (time.Duration, core.OCCStats, int, error) {
		spec := paperSpec(policy.Pinned{Tier: 0})
		spec.mux.LockMigration = lock
		s, err := newStack(spec)
		if err != nil {
			return 0, core.OCCStats{}, 0, err
		}
		f, err := s.mux.Create("/f")
		if err != nil {
			return 0, core.OCCStats{}, 0, err
		}
		defer f.Close()
		if err := seqFill(f, fileSize, 9); err != nil {
			return 0, core.OCCStats{}, 0, err
		}
		writes := 0
		if interleave {
			s.mux.SetMigrationInterleave(func(round int) {
				// A user write lands mid-migration; under OCC it proceeds
				// concurrently, under the lock this hook never fires with
				// the copy in flight (migration holds the file lock).
				if _, err := f.WriteAt([]byte{0xEE}, 4096); err == nil {
					writes++
				}
			})
		}
		w := simclock.StartWatch(s.clk)
		if _, err := s.mux.Migrate("/f", 0, 1); err != nil {
			return 0, core.OCCStats{}, 0, err
		}
		return w.Elapsed(), s.mux.OCC(), writes, nil
	}

	occQ, _, _, err := migrate(false, false)
	if err != nil {
		return nil, fmt.Errorf("A1 occ quiescent: %w", err)
	}
	lockQ, _, _, err := migrate(true, false)
	if err != nil {
		return nil, fmt.Errorf("A1 lock quiescent: %w", err)
	}
	_, occStats, occWrites, err := migrate(false, true)
	if err != nil {
		return nil, fmt.Errorf("A1 occ contended: %w", err)
	}
	res.QuiescentOCCMs = occQ.Seconds() * 1000
	res.QuiescentLockMs = lockQ.Seconds() * 1000
	res.ContendedOCC = occStats
	res.ConcurrentWritesOCC = occWrites
	res.ConcurrentWritesLock = 0
	return res, nil
}

// A2Result compares metadata affinity (§2.3) against writing attributes
// through to every participating file system.
type A2Result struct {
	AffinityMs float64 // total virtual time for the append workload
	SyncAllMs  float64
	Slowdown   float64 // SyncAll / Affinity
}

// RunA2 runs a metadata-heavy append workload on a file spread across all
// three tiers, with lazy owner-only sync vs sync-to-all.
func RunA2() (*A2Result, error) {
	run := func(syncAll bool) (time.Duration, error) {
		spec := paperSpec(policy.Pinned{Tier: 0})
		spec.mux.SyncAllMeta = syncAll
		spec.mux.MetaSyncEvery = 8
		s, err := newStack(spec)
		if err != nil {
			return 0, err
		}
		f, err := s.mux.Create("/appendlog")
		if err != nil {
			return 0, err
		}
		defer f.Close()
		// Spread the file across all tiers so sync-to-all touches three
		// file systems.
		if err := seqFill(f, 192<<10, 1); err != nil {
			return 0, err
		}
		if _, err := s.mux.MigrateRange("/appendlog", 0, 1, 64<<10, 64<<10); err != nil {
			return 0, err
		}
		if _, err := s.mux.MigrateRange("/appendlog", 0, 2, 128<<10, 64<<10); err != nil {
			return 0, err
		}
		w := simclock.StartWatch(s.clk)
		buf := []byte("append-entry-64-bytes-............................................")
		fi, _ := f.Stat()
		off := fi.Size
		for i := 0; i < 4000; i++ {
			if err := mustWrite(f, buf, off); err != nil {
				return 0, err
			}
			off += int64(len(buf))
		}
		return w.Elapsed(), nil
	}
	aff, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("A2 affinity: %w", err)
	}
	all, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("A2 sync-all: %w", err)
	}
	return &A2Result{
		AffinityMs: aff.Seconds() * 1000,
		SyncAllMs:  all.Seconds() * 1000,
		Slowdown:   float64(all) / float64(aff),
	}, nil
}

// A3Result measures the SCM cache (§2.5) on a skewed read workload.
type A3Result struct {
	NoCacheUs   float64 // mean read latency, µs
	WithCacheUs float64
	Speedup     float64
	HitRate     float64
}

// RunA3 runs Zipfian 4 KiB reads over an HDD-resident file with and without
// the SCM cache.
func RunA3() (*A3Result, error) {
	const fileSize = 64 << 20
	const reads = 8000
	run := func(cacheBytes int64) (time.Duration, float64, error) {
		// A small DRAM page cache models the paper's premise: DRAM cannot
		// scale with storage, so the SCM layer must absorb the working set.
		spec := paperSpec(policy.Pinned{Tier: 2}) // data on HDD
		spec.pageCache[2] = 2 << 20
		s, err := newStack(spec)
		if err != nil {
			return 0, 0, err
		}
		if cacheBytes > 0 {
			if err := s.mux.EnableSCMCache(0, cacheBytes); err != nil {
				return 0, 0, err
			}
		}
		f, err := s.mux.Create("/warmstore")
		if err != nil {
			return 0, 0, err
		}
		defer f.Close()
		if err := seqFill(f, fileSize, 2); err != nil {
			return 0, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		// The extlite DRAM cache would hide the HDD entirely at this scale;
		// restart the stack so only the SCM cache (when enabled) stands in
		// front of the disk.
		s.mux.Crash()
		if err := s.mux.Recover(); err != nil {
			return 0, 0, err
		}
		f2, err := s.mux.Open("/warmstore")
		if err != nil {
			return 0, 0, err
		}
		defer f2.Close()

		offs := zipfOffsets(fileSize, 4096, reads, 77)
		buf := make([]byte, 4096)
		w := simclock.StartWatch(s.clk)
		for _, off := range offs {
			if _, err := f2.ReadAt(buf, off); err != nil {
				return 0, 0, err
			}
		}
		elapsed := w.Elapsed() / reads
		stats := s.mux.CacheStats()
		hitRate := 0.0
		if total := stats.Hits + stats.Misses; total > 0 {
			hitRate = float64(stats.Hits) / float64(total)
		}
		return elapsed, hitRate, nil
	}
	noCache, _, err := run(0)
	if err != nil {
		return nil, fmt.Errorf("A3 no cache: %w", err)
	}
	withCache, hitRate, err := run(16 << 20)
	if err != nil {
		return nil, fmt.Errorf("A3 with cache: %w", err)
	}
	return &A3Result{
		NoCacheUs:   float64(noCache.Microseconds()),
		WithCacheUs: float64(withCache.Microseconds()),
		Speedup:     float64(noCache) / float64(withCache),
		HitRate:     hitRate,
	}, nil
}

// A4Row is one policy's outcome on the mixed workload.
type A4Row struct {
	Policy             string
	TierBytes          [3]int64
	HotReadUs          float64 // mean latency reading the hot file set
	MigrationsExecuted int
}

// A4Result compares the built-in policies on a mixed workload.
type A4Result struct {
	Rows []A4Row
}

// RunA4 writes a mix of small/hot and large/cold files, runs the Policy
// Runner, and measures hot-set read latency plus final data placement.
func RunA4() (*A4Result, error) {
	policies := []policy.Policy{policy.DefaultLRU(), policy.DefaultTPFS(), policy.DefaultHotCold()}
	res := &A4Result{}
	for _, pol := range policies {
		row, err := runA4One(pol)
		if err != nil {
			return nil, fmt.Errorf("A4 %s: %w", pol.Name(), err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runA4One(pol policy.Policy) (A4Row, error) {
	// A small PM tier creates placement pressure so policies must choose.
	spec := paperSpec(pol)
	spec.caps[0] = 64 << 20
	s, err := newStack(spec)
	if err != nil {
		return A4Row{}, err
	}
	// 8 hot small files, 6 cold large files.
	var hot []vfs.File
	for i := 0; i < 8; i++ {
		f, err := s.mux.Create(fmt.Sprintf("/hot%d", i))
		if err != nil {
			return A4Row{}, err
		}
		defer f.Close()
		if err := seqFill(f, 256<<10, byte(i)); err != nil {
			return A4Row{}, err
		}
		hot = append(hot, f)
	}
	for i := 0; i < 6; i++ {
		f, err := s.mux.Create(fmt.Sprintf("/cold%d", i))
		if err != nil {
			return A4Row{}, err
		}
		if err := seqFill(f, 16<<20, byte(i)); err != nil {
			f.Close()
			return A4Row{}, err
		}
		f.Close()
	}
	// Heat up the hot set, then let the Policy Runner react, over several
	// rounds (cold-file heat decays by half per round).
	buf := make([]byte, 4096)
	executed := 0
	for round := 0; round < 8; round++ {
		for rep := 0; rep < 5; rep++ {
			for _, f := range hot {
				if _, err := f.ReadAt(buf, 0); err != nil {
					return A4Row{}, err
				}
			}
		}
		st, err := s.mux.RunPolicyOnce()
		if err != nil {
			return A4Row{}, err
		}
		executed += st.Executed
	}
	// Measure hot-set read latency.
	const reads = 2000
	w := simclock.StartWatch(s.clk)
	for i := 0; i < reads; i++ {
		f := hot[i%len(hot)]
		if _, err := f.ReadAt(buf, int64(i%64)*4096); err != nil {
			return A4Row{}, err
		}
	}
	lat := w.Elapsed() / reads

	row := A4Row{Policy: pol.Name(), HotReadUs: float64(lat.Nanoseconds()) / 1000, MigrationsExecuted: executed}
	usage := s.mux.TierUsage()
	for i := 0; i < 3; i++ {
		row.TierBytes[i] = usage[i]
	}
	return row, nil
}

// A5Result verifies the §2.3 claim that the Block Lookup Table costs about
// one byte per 4 KiB block (< 0.025% of user data).
type A5Result struct {
	Files       int
	Runs        int
	MappedBytes int64
	TableBytes  int64
	BytesPer4K  float64
	OverheadPct float64
}

// RunA5 builds a deliberately fragmented multi-tier layout and measures the
// BLT footprint.
func RunA5() (*A5Result, error) {
	s, err := newStack(paperSpec(policy.Pinned{Tier: 0}))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		f, err := s.mux.Create(fmt.Sprintf("/data%d", i))
		if err != nil {
			return nil, err
		}
		if err := seqFill(f, 8<<20, byte(i)); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
		// Fragment across tiers: alternate 1 MiB stripes to SSD and HDD.
		for off := int64(0); off < 8<<20; off += 2 << 20 {
			if _, err := s.mux.MigrateRange(fmt.Sprintf("/data%d", i), 0, 1, off, 1<<20); err != nil {
				return nil, err
			}
			if _, err := s.mux.MigrateRange(fmt.Sprintf("/data%d", i), 0, 2, off+1<<20, 512<<10); err != nil {
				return nil, err
			}
		}
	}
	files, runs, mapped, table := s.mux.BLTStats()
	blocks := float64(mapped) / 4096
	return &A5Result{
		Files:       files,
		Runs:        runs,
		MappedBytes: mapped,
		TableBytes:  table,
		BytesPer4K:  float64(table) / blocks,
		OverheadPct: 100 * float64(table) / float64(mapped),
	}, nil
}

// Format prints the A1 table.
func (r *A1Result) Format(w io.Writer) {
	fmt.Fprintln(w, "A1 — OCC Synchronizer vs lock-based migration (16 MiB PM→SSD)")
	fmt.Fprintf(w, "  quiescent migration: OCC %.2f ms, lock-based %.2f ms (OCC bookkeeping overhead %.1f%%)\n",
		r.QuiescentOCCMs, r.QuiescentLockMs, 100*(r.QuiescentOCCMs-r.QuiescentLockMs)/r.QuiescentLockMs)
	fmt.Fprintf(w, "  contended: OCC allowed %d concurrent user writes (lock-based: %d);",
		r.ConcurrentWritesOCC, r.ConcurrentWritesLock)
	fmt.Fprintf(w, " conflicts=%d retries=%d lock-fallbacks=%d\n",
		r.ContendedOCC.Conflicts, r.ContendedOCC.Retries, r.ContendedOCC.LockFallbacks)
}

// Check holds A1 to §2.4: OCC adds no meaningful cost uncontended and
// admits user writes during migration, which the lock cannot.
func (r *A1Result) Check(Gates) error {
	var v verdict
	over := (r.QuiescentOCCMs - r.QuiescentLockMs) / r.QuiescentLockMs
	v.require(over <= 0.05, "quiescent OCC overhead %.1f%%, want < 5%%", 100*over)
	v.require(r.ConcurrentWritesOCC > 0, "OCC admitted no concurrent writes")
	v.require(r.ContendedOCC.Conflicts > 0 && r.ContendedOCC.LockFallbacks == 1, "contended OCC stats = %+v", r.ContendedOCC)
	return v.err()
}

// Format prints the A2 table.
func (r *A2Result) Format(w io.Writer) {
	fmt.Fprintln(w, "A2 — metadata affinity (owner-only lazy sync) vs sync-to-all-tiers")
	fmt.Fprintf(w, "  4000 appends to a 3-tier file: affinity %.2f ms, sync-all %.2f ms (%.2fx slower)\n",
		r.AffinityMs, r.SyncAllMs, r.Slowdown)
}

// Check holds A2 to §2.3: syncing metadata to every tier costs visibly
// more than owner-only affinity.
func (r *A2Result) Check(Gates) error {
	var v verdict
	v.require(r.Slowdown >= 1.1, "sync-all slowdown = %.2fx, affinity shows no benefit", r.Slowdown)
	return v.err()
}

// Format prints the A3 table.
func (r *A3Result) Format(w io.Writer) {
	fmt.Fprintln(w, "A3 — SCM cache (MGLRU) on Zipfian 4 KiB reads over an HDD-resident file")
	fmt.Fprintf(w, "  mean read latency: no cache %.0f µs, with cache %.0f µs (%.1fx faster, hit rate %.0f%%)\n",
		r.NoCacheUs, r.WithCacheUs, r.Speedup, 100*r.HitRate)
}

// Check holds A3 to §2.5: the SCM cache absorbs a Zipfian working set.
func (r *A3Result) Check(Gates) error {
	var v verdict
	v.require(r.Speedup >= 1.1, "SCM cache speedup = %.2fx, want > 1.1x", r.Speedup)
	v.require(r.HitRate >= 0.3, "hit rate = %.2f on a Zipfian workload", r.HitRate)
	return v.err()
}

// Format prints the A4 table.
func (r *A4Result) Format(w io.Writer) {
	fmt.Fprintln(w, "A4 — policy comparison on a mixed hot/cold workload")
	fmt.Fprintf(w, "  %-8s %10s %10s %10s %12s %6s\n", "Policy", "PM MiB", "SSD MiB", "HDD MiB", "hot-read µs", "moves")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8s %10.1f %10.1f %10.1f %12.2f %6d\n",
			row.Policy,
			float64(row.TierBytes[0])/(1<<20),
			float64(row.TierBytes[1])/(1<<20),
			float64(row.TierBytes[2])/(1<<20),
			row.HotReadUs, row.MigrationsExecuted)
	}
}

// Check requires every policy to place data and serve the hot set, and
// HotCold to demote the cold bulk off the small PM tier.
func (r *A4Result) Check(Gates) error {
	var v verdict
	v.require(len(r.Rows) == 3, "rows = %d, want 3", len(r.Rows))
	for _, row := range r.Rows {
		var total int64
		for _, b := range row.TierBytes {
			total += b
		}
		v.require(total > 0, "policy %s placed no data", row.Policy)
		v.require(row.HotReadUs > 0, "policy %s hot-read latency = %v", row.Policy, row.HotReadUs)
		v.require(row.Policy != "hotcold" || row.TierBytes[2] > 0, "hotcold policy never demoted cold data to HDD")
	}
	return v.err()
}

// Format prints the A5 table.
func (r *A5Result) Format(w io.Writer) {
	fmt.Fprintln(w, "A5 — Block Lookup Table space overhead (paper claim: ~1 B per 4 KiB, <0.025%)")
	fmt.Fprintf(w, "  %d files, %d runs mapping %.1f MiB; table %.1f KiB = %.2f B per 4 KiB block (%.4f%%)\n",
		r.Files, r.Runs, float64(r.MappedBytes)/(1<<20), float64(r.TableBytes)/1024, r.BytesPer4K, r.OverheadPct)
}

// Check holds A5 to the paper's claim: < 0.025% space overhead (1 B per
// 4 KiB block).
func (r *A5Result) Check(Gates) error {
	var v verdict
	v.require(r.OverheadPct <= 0.025, "BLT overhead = %.4f%%, exceeds the paper's 0.025%% claim", r.OverheadPct)
	v.require(r.Runs > 0 && r.Files > 0, "BLT stats empty: %+v", *r)
	return v.err()
}
