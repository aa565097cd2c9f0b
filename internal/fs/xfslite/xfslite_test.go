package xfslite

import (
	"bytes"
	"runtime"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fs/blockfs"
	"muxfs/internal/fstest"
	"muxfs/internal/race"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

func newFS(t *testing.T) *blockfs.FS {
	t.Helper()
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := New("xfs@ssd0", dev)
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
		dev := device.New(device.SSDProfile("ssd0"), simclock.New())
		cp := device.NewCrashPoint()
		dev.SetCrashPoint(cp)
		fs, err := New("xfs@ssd0", dev)
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

func TestLargeFileFewExtents(t *testing.T) {
	// The extent allocator must grant big contiguous runs: a 16 MiB
	// sequential write should produce very few extents.
	fs := newFS(t)
	f, err := fs.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chunk := make([]byte, 1<<20)
	for i := 0; i < 16; i++ {
		if _, err := f.WriteAt(chunk, int64(i)<<20); err != nil {
			t.Fatal(err)
		}
	}
	exts, err := f.Extents()
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) > 4 {
		t.Fatalf("sequential 16 MiB write fragmented into %d extents", len(exts))
	}
}

func TestCachedReadIsCheaperThanMiss(t *testing.T) {
	// Second read of the same page must hit DRAM, not the SSD — the effect
	// E3's Mux-over-XFS overhead ratio depends on.
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := New("xfs@ssd0", dev)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/c")
	f.WriteAt(make([]byte, 4096), 0)
	f.Sync()
	f.Close()
	// Restart to drop the (write-populated) DRAM cache: reads start cold.
	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err = fs.Open("/c")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1)
	clk := dev.Clock()
	w := simclock.StartWatch(clk)
	f.ReadAt(buf, 10)
	missCost := w.Elapsed()
	w.Restart()
	f.ReadAt(buf, 10)
	hitCost := w.Elapsed()
	if hitCost*5 > missCost {
		t.Fatalf("cache hit %v not much cheaper than miss %v", hitCost, missCost)
	}
	stats := fs.CacheStats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("cache stats = %+v", stats)
	}
}

func TestGroupCommitBatchesJournal(t *testing.T) {
	// Many small writes then one Sync: the journal should see few commits
	// (group commit), not one per write.
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := New("xfs@ssd0", dev)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/batch")
	defer f.Close()
	before := dev.Stats().Persists
	for i := 0; i < 100; i++ {
		f.WriteAt([]byte("x"), int64(i*8192))
	}
	mid := dev.Stats().Persists
	if mid-before > 2 {
		t.Fatalf("journal persisted %d times during unsynced writes", mid-before)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Persists == mid {
		t.Fatal("Sync did not persist anything")
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

// syncedRead crashes and recovers fs, then reads n bytes of path.
func syncedRead(t *testing.T, fs *blockfs.FS, path string, n int) []byte {
	t.Helper()
	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, n)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	return got
}

// A Sync whose write-back fails must leave the pages dirty: the retried
// Sync writes them, so they survive a crash.
func TestFailedSyncKeepsPagesDirty(t *testing.T) {
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := New("xfs@ssd0", dev)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/f")
	want := bytes.Repeat([]byte{0x5A}, 2*blockfs.PageSize)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	dev.InjectFailure(true)
	if err := f.Sync(); err == nil {
		t.Fatal("Sync succeeded on a failed device")
	}
	dev.ClearFaults()
	if err := f.Sync(); err != nil {
		t.Fatalf("retried Sync: %v", err)
	}
	f.Close()
	if got := syncedRead(t, fs, "/f", len(want)); !bytes.Equal(got, want) {
		t.Fatal("data of a retried Sync lost in a crash")
	}
}

// A dirty page whose eviction write-back fails must stay cached and dirty,
// not vanish: the next Sync writes it.
func TestFailedEvictionKeepsPageDirty(t *testing.T) {
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := NewWithCache("xfs@ssd0", dev, blockfs.PageSize) // one page
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/f")
	want := bytes.Repeat([]byte{0xA5}, blockfs.PageSize)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	dev.InjectFailure(true)
	// A whole-page write needs no device read, so the failure it meets is
	// the eviction's write-back.
	if _, err := f.WriteAt(want, blockfs.PageSize); err == nil {
		t.Fatal("a write that evicts onto a failed device succeeded")
	}
	dev.ClearFaults()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := syncedRead(t, fs, "/f", len(want)); !bytes.Equal(got, want) {
		t.Fatal("dirty page lost by a failed eviction")
	}
}

// The cache keeps no bytes for a clean page: reading 32 MiB through a
// cache that holds all of it retains well under a page per cached page
// (the key, its LRU link and its map entry), not a 4 KiB copy of what the
// device already holds.
func TestCleanPageAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime's allocation bookkeeping inflates the heap")
	}
	const size = 32 << 20
	const pages = size / blockfs.PageSize
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := NewWithCache("xfs@ssd0", dev, 2*size)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/f")
	chunk := bytes.Repeat([]byte{0x3C}, 1<<20)
	for off := int64(0); off < size; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fs.Crash() // start cold: the read below fills the cache
	if err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err = fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // and the buffers sync.Pools held through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for off := int64(0); off < size; off += int64(len(chunk)) {
		if _, err := f.ReadAt(chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if s := fs.CacheStats(); s.Pages != pages || s.Misses != pages {
		t.Fatalf("cache stats %+v, want %d pages read in by misses", s, pages)
	}
	perPage := (float64(after) - float64(before)) / pages
	t.Logf("%.0f B retained per cached clean page", perPage)
	if perPage > 512 {
		t.Fatalf("%.0f B retained per cached clean page, want <= 512", perPage)
	}
	runtime.KeepAlive(chunk) // live at both heap readings
	runtime.KeepAlive(fs)
}

// xfslite group-commits metadata: a Create whose Sync fails keeps its
// record queued, and once the device heals the next Sync commits it, so
// the file survives a crash.
func TestFailedSyncKeepsRecordsQueued(t *testing.T) {
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := New("xfs@ssd0", dev)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x77}, 3000)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	dev.InjectFailure(true)
	if err := fs.Sync(); err == nil {
		t.Fatal("Sync succeeded on a failed device")
	}
	dev.InjectFailure(false)
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatalf("file gone after a failed Sync: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync after the device healed: %v", err)
	}
	if got := syncedRead(t, fs, "/f", len(want)); !bytes.Equal(got, want) {
		t.Fatal("file of a retried Sync lost in a crash")
	}
}
