package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"muxfs/internal/fstest"
	"muxfs/internal/policy"
	"muxfs/internal/race"
	"muxfs/internal/vfs"
)

// quarantine opens tier id's breaker by hand (the breaker's transitions
// are covered in internal/guard).
func quarantine(m *Mux, id int) {
	m.tierRec(id).health.Trip()
}

// filterHealthy runs on every placement query: with nothing quarantined it
// must hand back its input without copying it.
func TestFilterHealthy(t *testing.T) {
	r := newRig(t, policy.Pinned{}, false)
	infos := r.m.tierInfos()
	if len(infos) != 3 {
		t.Fatalf("%d tiers, want 3", len(infos))
	}
	ids := func(tis []policy.TierInfo) []int {
		var out []int
		for _, ti := range tis {
			out = append(out, ti.ID)
		}
		return out
	}

	if got := r.m.filterHealthy(infos); len(got) != 3 || &got[0] != &infos[0] {
		t.Fatalf("no tier quarantined: got tiers %v, want the input slice itself", ids(got))
	}
	if a := testing.AllocsPerRun(100, func() { r.m.filterHealthy(infos) }); a != 0 {
		t.Fatalf("no tier quarantined: %.1f allocations per call, want 0", a)
	}

	quarantine(r.m, r.ids.ssd)
	got := r.m.filterHealthy(infos)
	if len(got) != 2 || got[0].ID != r.ids.pm || got[1].ID != r.ids.hdd {
		t.Fatalf("SSD quarantined: got tiers %v, want [%d %d]", ids(got), r.ids.pm, r.ids.hdd)
	}
	if infos[1].ID != r.ids.ssd {
		t.Fatal("filtering rewrote the input slice")
	}

	quarantine(r.m, r.ids.pm)
	quarantine(r.m, r.ids.hdd)
	if got := r.m.filterHealthy(infos); len(got) != 3 || &got[0] != &infos[0] {
		t.Fatalf("all tiers quarantined: got tiers %v, want the input slice itself", ids(got))
	}
}

// The pipelined copier (more than one migration worker) draws its
// double buffers from copyBufPool instead of allocating 2 × migrateChunk
// per call.
func TestPipelinedCopyAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := newRig(t, policy.Pinned{}, false)
	r.m.SetMigrationWorkers(2)
	const size = 4 * migrateChunk
	fh := writeFile(t, r.m, "/copy", bytes.Repeat([]byte{0x3D}, size))
	defer fh.Close()
	f, err := r.m.lookupFile("/copy")
	if err != nil {
		t.Fatal(err)
	}
	srcH, err := r.m.ensureHandle(f, r.ids.pm)
	if err != nil {
		t.Fatal(err)
	}
	dstH, err := r.m.ensureHandle(f, r.ids.ssd)
	if err != nil {
		t.Fatal(err)
	}
	ranges := []vfs.Extent{{Off: 0, Len: size}}
	copyOnce := func() {
		if err := r.m.copyRanges(srcH, dstH, r.m.tierRec(r.ids.pm), r.m.tierRec(r.ids.ssd), ranges); err != nil {
			t.Fatal(err)
		}
	}
	if b := fstest.AllocBytesPerRun(20, copyOnce); b >= migrateChunk/4 {
		t.Fatalf("pipelined copy of %d KiB allocates %.0f B per call, want < %d", size>>10, b, migrateChunk/4)
	}
	if a := testing.AllocsPerRun(20, copyOnce); a > 32 {
		t.Fatalf("pipelined copy allocates %.1f objects per call, want <= 32", a)
	}
}

// A whole-file Migrate copies through pooled chunk buffers, so the heap it
// takes per byte moved stays near 0.02 B, with the serial copy loop (one
// migration worker) and the pipelined copier alike. The 1.1 B budget fails
// a copy path that allocates a buffer per chunk moved.
func TestMigrateAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const size = 1 << 20
	for _, workers := range []int{1, 2} {
		r := newRig(t, policy.Pinned{}, false)
		r.m.SetMigrationWorkers(workers)
		fh := writeFile(t, r.m, "/mig", bytes.Repeat([]byte{0x6B}, size))
		defer fh.Close()
		moves := 0
		migrate := func() {
			src, dst := r.ids.pm, r.ids.ssd
			if moves%2 == 1 {
				src, dst = dst, src
			}
			moves++
			if n, err := r.m.Migrate("/mig", src, dst); err != nil || n != size {
				t.Fatalf("migrate %d -> %d: moved %d bytes, %v", src, dst, n, err)
			}
		}
		if b := fstest.AllocBytesPerRun(20, migrate) / size; b > 1.1 {
			t.Errorf("%d workers: a 1 MiB Migrate allocates %.3f B per byte moved, want <= 1.1", workers, b)
		} else {
			t.Logf("%d workers: %.3f B per byte moved", workers, b)
		}
	}
}

// A read spanning two tiers at fan-out width 1 runs its plan serially on
// the calling goroutine: the pooled plan, the BLT walk scratch and the
// tier grouping allocate nothing.
func TestSpanningReadAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := newRigConfig(t, policy.Pinned{}, false, func(c *Config) { c.DataFanout = 1 })
	const size = 64 << 10
	fh := writeFile(t, r.m, "/span", bytes.Repeat([]byte{0x2C}, size))
	defer fh.Close()
	if _, err := r.m.MigrateRange("/span", r.ids.pm, r.ids.ssd, size/2, size/2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	read := func() {
		if n, err := fh.ReadAt(buf, size/2-4096); err != nil || n != len(buf) {
			t.Fatalf("spanning read: %d bytes, %v", n, err)
		}
	}
	read() // open both downward handles
	if usage := r.m.TierUsage(); usage[r.ids.pm] != size/2 || usage[r.ids.ssd] != size/2 {
		t.Fatalf("usage %v, want the file split between PM and SSD", usage)
	}
	if a := testing.AllocsPerRun(1000, read); a != 0 {
		t.Fatalf("read spanning two tiers: %.1f allocations per call, want 0", a)
	}
}

// With the meta journal on, a steady-state 4 KiB overwrite — counting its
// share of a Sync every 64th write, which commits the buffered BLT records
// and the tiers' logs — allocates nothing: record payloads encode into
// reused arenas, commits onto arena pages, the new size and mtime publish
// as atomics, and Sync walks the file's tiers without a set.
func TestMetaOverwriteAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := newRig(t, policy.Pinned{}, true)
	fh := writeFile(t, r.m, "/w", make([]byte, 1<<20))
	defer fh.Close()
	block := make([]byte, 4096)
	writes := 0
	overwrite := func() {
		if _, err := fh.WriteAt(block, int64(writes%256)*4096); err != nil {
			t.Fatal(err)
		}
		if writes++; writes%64 == 0 {
			if err := fh.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for writes < 4096 { // grow the reused slices and buffers
		overwrite()
	}
	if a := testing.AllocsPerRun(64*40, overwrite); a > 0 {
		t.Fatalf("4 KiB overwrite with a Sync every 64 writes: %.1f allocations per write, want 0", a)
	}
}

// A read inside one cached extent and a Stat, by handle or by path,
// allocate nothing.
func TestReadAndStatAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := newRig(t, policy.Pinned{}, true)
	if err := r.m.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	fh := writeFile(t, r.m, "/dir/r", bytes.Repeat([]byte{0x5A}, 1<<20))
	defer fh.Close()
	buf := make([]byte, 4096)
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"ReadAt", func() error { _, err := fh.ReadAt(buf, 8192); return err }},
		{"handle Stat", func() error { _, err := fh.Stat(); return err }},
		{"path Stat", func() error { _, err := r.m.Stat("/dir/r"); return err }},
	} {
		if err := c.op(); err != nil { // open the downward handle
			t.Fatalf("%s: %v", c.name, err)
		}
		if a := testing.AllocsPerRun(1000, func() {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", c.name, a)
		}
	}
}

// A 4 KiB write into a hole asks the policy for a placement and checks it
// against the file systems with one tier snapshot, drawn from reused
// scratch. The budget is the published BLT snapshot (the tree and its
// entries) and the plan's per-segment done flags. A fresh
// []policy.TierInfo per write makes it 4, and so does allocating the new
// device page on the Go heap instead of taking it from the page arena.
func TestHoleWriteAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := newRig(t, policy.Pinned{}, true)
	fh, err := r.m.Create("/holes")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	block := make([]byte, 4096)
	var off int64
	write := func() {
		off += 2 * 4096 // skip a block, so every write lands in a hole
		if _, err := fh.WriteAt(block, off); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		write()
	}
	if a := testing.AllocsPerRun(1000, write); a > 3 {
		t.Fatalf("4 KiB write into a hole: %.1f allocations per write, want <= 3", a)
	}
}

// Recover's heap does not grow with the meta log: replay applies records
// as the journal reads them, through a reused window, so a log 8× longer
// (the same files, more overwrites) allocates no more than a fixed
// constant over the shorter one. Each figure is the least of three
// Crash+Recover cycles.
func TestRecoveryAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const files, blocks = 32, 16
	recoverAlloc := func(overwrites int) uint64 {
		r := newRig(t, policy.Pinned{}, true)
		r.m.meta.ckptBytes = 1 << 60 // keep the whole history in the log
		var fhs []vfs.File
		for i := 0; i < files; i++ {
			fh := writeFile(t, r.m, fmt.Sprintf("/f%d", i), make([]byte, blocks*4096))
			defer fh.Close()
			fhs = append(fhs, fh)
		}
		block := make([]byte, 4096)
		for i := 0; i < overwrites; i++ {
			if _, err := fhs[i%files].WriteAt(block, int64(i/files%blocks)*4096); err != nil {
				t.Fatal(err)
			}
			if i%64 == 63 {
				if err := r.m.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.m.Sync(); err != nil {
			t.Fatal(err)
		}
		least := uint64(0)
		for c := 0; c < 3; c++ {
			r.m.Crash()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := r.m.Recover(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if a := after.TotalAlloc - before.TotalAlloc; c == 0 || a < least {
				least = a
			}
		}
		return least
	}
	short, long := recoverAlloc(2_000), recoverAlloc(16_000)
	const slack = 64 << 10
	if long > short+slack {
		t.Fatalf("Recover allocated %d B for a log of 2,000 overwrites and %d B for one of 16,000: want at most %d B more", short, long, slack)
	}
	t.Logf("Recover allocated %d B (2,000 overwrites) and %d B (16,000)", short, long)
}
