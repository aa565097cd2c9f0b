package novafs

import (
	"bytes"
	"errors"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fstest"
	"muxfs/internal/race"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	dev := device.New(device.PMProfile("pmem0"), simclock.New())
	fs, err := New("nova@pmem0", dev, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem { return newFS(t) })
}

func TestCrashRecovery(t *testing.T) {
	fstest.RunCrashRecovery(t, func(t *testing.T) (vfs.FileSystem, func() vfs.FileSystem) {
		fs := newFS(t)
		return fs, func() vfs.FileSystem {
			fs.Crash()
			if err := fs.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			return fs
		}
	})
}

func TestCrashSweep(t *testing.T) {
	fstest.RunCrashSweep(t, func(t *testing.T) *fstest.SweepTarget {
		dev := device.New(device.PMProfile("pmem0"), simclock.New())
		cp := device.NewCrashPoint()
		dev.SetCrashPoint(cp)
		fs, err := New("nova@pmem0", dev, DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		return &fstest.SweepTarget{
			FS: fs,
			CP: cp,
			Remount: func() (vfs.FileSystem, error) {
				fs.Crash()
				if err := fs.Recover(); err != nil {
					return nil, err
				}
				return fs, nil
			},
			Check: func(vfs.FileSystem) error { return fs.CheckConsistency() },
		}
	})
}

func TestCrashStorm(t *testing.T) {
	fstest.RunCrashStorm(t, func(t *testing.T) *fstest.SweepTarget {
		fs := newFS(t)
		return &fstest.SweepTarget{
			FS: fs,
			CP: device.NewCrashPoint(),
			Remount: func() (vfs.FileSystem, error) {
				fs.Crash()
				if err := fs.Recover(); err != nil {
					return nil, err
				}
				return fs, nil
			},
			Check: func(vfs.FileSystem) error { return fs.CheckConsistency() },
		}
	})
}

func TestRequiresByteAddressableDevice(t *testing.T) {
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	if _, err := New("nova@ssd0", dev, DefaultCosts()); err == nil {
		t.Fatal("novafs mounted on a block device")
	}
}

func TestUnsyncedWritesSurviveCrash(t *testing.T) {
	// NOVA persists synchronously: even *without* fsync, completed writes
	// survive a crash. This distinguishes it from the journaled FSes.
	fs := newFS(t)
	f, err := fs.Create("/n")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("no fsync needed")
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	f2, err := fs.Open("/n")
	if err != nil {
		t.Fatalf("file lost without fsync: %v", err)
	}
	defer f2.Close()
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("data lost without fsync: %q", got)
	}
}

func TestLogCompaction(t *testing.T) {
	// A small device gets a 1 MiB log; hammer it with metadata ops until
	// compaction must have happened, then verify state and recovery.
	clk := simclock.New()
	prof := device.PMProfile("pmem0")
	prof.Capacity = 8 << 20
	dev := device.New(prof, clk)
	fs, err := New("nova@pmem0", dev, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/churn")
	if err != nil {
		t.Fatal(err)
	}
	// Each write commits a record (~70 bytes); 20k writes >> 1 MiB of log.
	buf := []byte("x")
	for i := 0; i < 20000; i++ {
		if _, err := f.WriteAt(buf, int64(i%4096)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	f.Close()
	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatalf("recover after compaction: %v", err)
	}
	fi, err := fs.Stat("/churn")
	if err != nil || fi.Size != 4096 {
		t.Fatalf("post-compaction stat = %+v, %v", fi, err)
	}
}

func TestContiguousAllocationCoalesces(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Create("/big")
	defer f.Close()
	f.WriteAt(make([]byte, 64*PageSize), 0)
	exts, _ := f.Extents()
	if len(exts) != 1 {
		t.Fatalf("sequential write produced %d extents, want 1", len(exts))
	}
	if exts[0].Off != 0 || exts[0].Len != 64*PageSize {
		t.Fatalf("extent = %+v", exts[0])
	}
}

func TestNoSpace(t *testing.T) {
	clk := simclock.New()
	prof := device.PMProfile("tiny")
	prof.Capacity = 4 << 20 // 1 MiB log (min) + 3 MiB data
	dev := device.New(prof, clk)
	fs, err := New("nova@tiny", dev, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/fill")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chunk := make([]byte, 1<<20)
	var werr error
	for i := 0; i < 8; i++ {
		if _, werr = f.WriteAt(chunk, int64(i)<<20); werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("filled device without ErrNoSpace")
	}
	// The FS must stay usable after ENOSPC.
	if _, err := f.ReadAt(make([]byte, 10), 0); err != nil {
		t.Fatalf("read after ENOSPC: %v", err)
	}
}

// A write that runs out of pages partway frees every page it staged, not
// only the first page of each contiguous run: afterwards the pages in use
// are exactly the pages the file maps.
func TestNoSpaceRollbackFreesWholeRuns(t *testing.T) {
	prof := device.PMProfile("tiny")
	prof.Capacity = 4 << 20
	fs, err := New("nova@tiny", device.New(prof, simclock.New()), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 2<<20), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 2<<20), 2<<20); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("second 2 MiB write: %v, want ErrNoSpace", err)
	}
	st, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Used != fi.Blocks {
		t.Fatalf("Statfs used %d B, the file maps %d B: the rollback leaked %d B", st.Used, fi.Blocks, st.Used-fi.Blocks)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDAXReadChargesNoDRAMCache(t *testing.T) {
	// Two identical reads must cost the same: novafs has no page cache, so
	// there is no warm-up effect (that's the DAX property E3 relies on).
	fs := newFS(t)
	f, _ := fs.Create("/d")
	defer f.Close()
	f.WriteAt(make([]byte, 8192), 0)

	buf := make([]byte, 1)
	w := simclock.StartWatch(fs.Clk)
	f.ReadAt(buf, 100)
	first := w.Elapsed()
	w.Restart()
	f.ReadAt(buf, 100)
	second := w.Elapsed()
	if first != second {
		t.Fatalf("read cost changed between identical reads: %v then %v", first, second)
	}
}

func TestCostHints(t *testing.T) {
	fs := newFS(t)
	if fs.ReadCostHint(4096) <= 0 || fs.WriteCostHint(4096) <= 0 {
		t.Fatal("cost hints not positive")
	}
	if fs.ReadCostHint(1<<20) <= fs.ReadCostHint(1) {
		t.Fatal("cost hint not size-sensitive")
	}
	if fs.DeviceName() != "pmem0" {
		t.Fatalf("DeviceName = %q", fs.DeviceName())
	}
}

func TestConcurrency(t *testing.T) {
	fstest.RunConcurrency(t, func(t *testing.T) vfs.FileSystem { return newFS(t) })
}

func TestCrashTorture(t *testing.T) {
	fstest.RunCrashTorture(t, func(t *testing.T) (vfs.FileSystem, func() vfs.FileSystem) {
		fs := newFS(t)
		return fs, func() vfs.FileSystem {
			fs.Crash()
			if err := fs.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			return fs
		}
	}, 12)
}

// A create, rename or remove that finds the log full commits its record
// after a snapshot of the published state, in the snapshot's transaction:
// recovery replays it once and succeeds.
func TestCompactionCommitsOpOnce(t *testing.T) {
	prof := device.PMProfile("pmem0")
	prof.Capacity = 16 << 20 // the minimum 1 MiB log
	fs, err := New("nova@pmem0", device.New(prof, simclock.New()), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	fstest.RunCompactionRecovery(t, fs,
		func() int64 { return fs.Log.Size() - fs.Log.UsedBytes() },
		func() error { fs.Crash(); return fs.Recover() })
}

// A punch whose second ragged edge fails after the first edge's
// copy-on-write succeeded must leave the file as it was: the first edge's
// page keeps its old PM page, mapped and allocated, before and after a
// crash. Before the fix the first edge was already remapped onto a zeroed
// copy and its old page freed, so the failed punch read back zeros and
// the freed page — still mapped by the committed log — could be reused.
func TestFailedPunchEdgeRollsBack(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Create("/f")
	want := bytes.Repeat([]byte{0xA5}, 4*PageSize)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	used := fs.pages.Used()
	fs.Dev.InjectFaults(device.FaultPlan{Seed: 7, WriteErrProb: 0.5})
	err := f.PunchHole(100, 3*PageSize)
	fs.Dev.ClearFaults()
	if err == nil {
		t.Fatal("punch succeeded; the fault seed no longer fails its second edge")
	}
	got := make([]byte, len(want))
	check := func(when string) {
		t.Helper()
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: file changed by a failed punch", when)
		}
	}
	check("after the failed punch")
	if n := fs.pages.Used(); n != used {
		t.Fatalf("failed punch changed the used page count %d -> %d", used, n)
	}
	g, _ := fs.Create("/g")
	if _, err := g.WriteAt(bytes.Repeat([]byte{0x3C}, 4*PageSize), 0); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	if f, err = fs.Open("/f"); err != nil {
		t.Fatal(err)
	}
	check("after a crash")
}

// novafs commits every metadata op synchronously: a Create or Mkdir whose
// log commit fails returns the error and leaves no entry behind, neither
// live nor after a crash and recovery.
func TestFailedCommitLeavesNoEntry(t *testing.T) {
	dev := device.New(device.PMProfile("pmem0"), simclock.New())
	fs, err := New("nova@pmem0", dev, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	absent := func(when string) {
		t.Helper()
		for _, p := range []string{"/d/f", "/d/sub"} {
			if _, err := fs.Stat(p); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("%s: Stat(%s) = %v, want ErrNotExist", when, p, err)
			}
		}
		ents, err := fs.ReadDir("/d")
		if err != nil || len(ents) != 0 {
			t.Fatalf("%s: ReadDir(/d) = %v, %v; want empty", when, ents, err)
		}
	}
	dev.InjectFailure(true)
	if _, err := fs.Create("/d/f"); err == nil {
		t.Fatal("Create succeeded with a failing log commit")
	}
	if err := fs.Mkdir("/d/sub"); err == nil {
		t.Fatal("Mkdir succeeded with a failing log commit")
	}
	dev.InjectFailure(false)
	absent("live")
	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	absent("after a crash")
	// The names are free again.
	f, err := fs.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Mkdir("/d/sub"); err != nil {
		t.Fatal(err)
	}
}

// The data path of a mounted file allocates no more than its journal
// record needs: an in-place 4 KiB overwrite allocates the 8 B payload of
// its size/mtime record and nothing else, and a 4 KiB read and a handle
// Stat allocate nothing. hot-local's per-op heap figure rests on this.
func TestDataPathAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("device pages come from the Go heap under -race")
	}
	fs := newFS(t)
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const pages = 64
	if _, err := f.WriteAt(make([]byte, pages*PageSize), 0); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0x6B}, PageSize)
	var pg int64
	next := func() int64 { pg = (pg + 1) % pages; return pg * PageSize }
	for _, c := range []struct {
		name   string
		allocs float64
		bytes  float64
		op     func()
	}{
		{"overwrite", 1, 8, func() {
			if _, err := f.WriteAt(buf, next()); err != nil {
				t.Fatal(err)
			}
		}},
		{"read", 0, 0, func() {
			if _, err := f.ReadAt(buf, next()); err != nil {
				t.Fatal(err)
			}
		}},
		{"stat", 0, 0, func() {
			if _, err := f.Stat(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if a := testing.AllocsPerRun(200, c.op); a > c.allocs {
			t.Errorf("%s allocates %.1f objects per op, want <= %.0f", c.name, a, c.allocs)
		}
		if b := fstest.AllocBytesPerRun(200, c.op); b > c.bytes {
			t.Errorf("%s allocates %.1f B per op, want <= %.0f", c.name, b, c.bytes)
		}
	}
}

// Path operations resolve a clean path without allocating: a path Stat
// allocates nothing and an Open allocates only its handle. Every Mux read
// or write that opens a tier file downward pays this.
func TestPathOpAllocationBudget(t *testing.T) {
	fs := newFS(t)
	for _, d := range []string{"/a", "/a/b"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Create("/a/b/x")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, c := range []struct {
		name   string
		allocs float64
		op     func()
	}{
		{"stat", 0, func() {
			if _, err := fs.Stat("/a/b/x"); err != nil {
				t.Fatal(err)
			}
		}},
		{"open+close", 1, func() {
			h, err := fs.Open("/a/b/x")
			if err != nil {
				t.Fatal(err)
			}
			h.Close()
		}},
	} {
		if a := testing.AllocsPerRun(200, c.op); a > c.allocs {
			t.Errorf("%s allocates %.1f objects per op, want <= %.0f", c.name, a, c.allocs)
		}
	}
}
