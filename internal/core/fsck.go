package core

import (
	"fmt"
	"sort"
)

// FsckReport is the result of a consistency check over the Mux metadata and
// the underlying file systems.
type FsckReport struct {
	Files        int
	BLTRuns      int
	BytesChecked int64
	Problems     []string
}

// OK reports whether the check found no inconsistencies.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) addf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck cross-checks Mux's bookkeeping against ground truth:
//
//   - every Block Lookup Table range must be backed by allocated extents of
//     the same-path sparse file on its tier;
//   - the collective inode's size must cover the BLT's highest mapped byte;
//   - Mux's per-tier usage accounting must equal the BLT totals.
//
// It takes per-file locks one at a time; concurrent mutation between files
// is tolerated (the check is advisory, like fsck -n). Per-file verification
// shards across RecoveryWorkers goroutines — files are independent, so a
// large namespace checks on all cores (the E11 parallel-fsck leg).
func (m *Mux) Fsck() *FsckReport {
	files := m.files.snapshot()
	workers := m.recoveryWorkers(len(files))
	parts := make([]FsckReport, workers)
	tierParts := make([]map[int]int64, workers)
	for w := range tierParts {
		tierParts[w] = map[int]int64{}
	}
	m.recoverEach(len(files), func(w, i int) {
		m.fsckFile(files[i], &parts[w], tierParts[w])
	})

	rep := &FsckReport{}
	perTier := map[int]int64{}
	for w := range parts {
		rep.Files += parts[w].Files
		rep.BLTRuns += parts[w].BLTRuns
		rep.BytesChecked += parts[w].BytesChecked
		rep.Problems = append(rep.Problems, parts[w].Problems...)
		for tier, n := range tierParts[w] {
			perTier[tier] += n
		}
	}
	sort.Strings(rep.Problems) // deterministic order across worker counts

	// Accounting check, over every tier record — removed tiers included.
	for _, t := range m.tierTab.Load().tiers {
		got := t.used.Load()
		if want, ok := perTier[t.ID]; ok && got != want {
			rep.addf("tier %d usage accounting %d != BLT total %d", t.ID, got, want)
		} else if !ok && got != 0 {
			rep.addf("tier %d accounts %d bytes but no BLT references it", t.ID, got)
		}
	}
	return rep
}

// fsckFile verifies one file into a worker-local report and tier total.
func (m *Mux) fsckFile(f *muxFile, rep *FsckReport, perTier map[int]int64) {
	f.mu.Lock()
	rep.Files++
	rep.BLTRuns += f.blt.Len()

	_, hi := f.blt.Bounds()
	if hi > f.meta.Size {
		rep.addf("%s: BLT maps %d bytes past the logical size %d", f.path, hi-f.meta.Size, f.meta.Size)
	}

	type runCheck struct {
		tier   int
		off, n int64
	}
	var runs []runCheck
	f.blt.Walk(func(off, n int64, tier int) bool {
		perTier[tier] += n
		rep.BytesChecked += n
		runs = append(runs, runCheck{tier: tier, off: off, n: n})
		return true
	})
	path := f.path
	f.mu.Unlock()

	// Verify backing extents without holding f.mu (downward Stat and
	// Extents take the native FS locks).
	for _, rc := range runs {
		t, err := m.tier(rc.tier)
		if err != nil {
			rep.addf("%s: BLT references removed tier %d", path, rc.tier)
			continue
		}
		h, err := t.fs.Open(path)
		if err != nil {
			rep.addf("%s: missing on tier %s: %v", path, t.FS.Name(), err)
			continue
		}
		exts, err := h.Extents()
		h.Close()
		if err != nil {
			rep.addf("%s: extents on %s: %v", path, t.FS.Name(), err)
			continue
		}
		covered := int64(0)
		for _, e := range exts {
			lo, hi := maxI64(e.Off, rc.off), minI64(e.End(), rc.off+rc.n)
			if hi > lo {
				covered += hi - lo
			}
		}
		if covered < rc.n {
			rep.addf("%s: [%d,%d) on %s backed by only %d of %d bytes",
				path, rc.off, rc.off+rc.n, t.FS.Name(), covered, rc.n)
		}
	}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
