package blockfs

import (
	"bytes"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fstest"
	"muxfs/internal/race"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// newSmallCacheFS builds a blockfs with a tiny page cache so eviction
// write-back paths trigger quickly.
func newSmallCacheFS(t *testing.T, cachePages int) (*FS, *device.Device) {
	t.Helper()
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := New(dev, Config{
		Name:       "test@ssd0",
		Costs:      Costs{},
		CachePages: cachePages,
		NewPlacer:  NewExtentPlacer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

func TestWriteBackOnEviction(t *testing.T) {
	fs, dev := newSmallCacheFS(t, 4) // 16 KiB of cache
	f, err := fs.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte{0x42}, 64*1024) // 16 pages >> 4-page cache
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	// Evictions must have pushed most pages to the device already.
	if w := dev.Stats().BytesWritten; w < 32*1024 {
		t.Fatalf("only %d bytes written back under cache pressure", w)
	}
	// All data readable despite the tiny cache.
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("eviction write-back lost data")
	}
}

func TestDirtyDataInvisibleToDeviceUntilFlush(t *testing.T) {
	fs, dev := newSmallCacheFS(t, 1024)
	f, _ := fs.Create("/lazy")
	defer f.Close()
	before := dev.Stats().BytesWritten
	if _, err := f.WriteAt(bytes.Repeat([]byte{1}, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().BytesWritten - before; got != 0 {
		t.Fatalf("write-back cache wrote %d bytes to the device eagerly", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().BytesWritten - before; got < 8192 {
		t.Fatalf("Sync flushed only %d bytes", got)
	}
}

func TestFlushCoalescesContiguousPages(t *testing.T) {
	fs, dev := newSmallCacheFS(t, 1024)
	f, _ := fs.Create("/seq")
	defer f.Close()
	// 32 contiguous dirty pages...
	if _, err := f.WriteAt(make([]byte, 32*4096), 0); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().Writes
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// ...must reach the device in very few merged writes (the extent
	// placer keeps them device-contiguous), not one write per page.
	writes := dev.Stats().Writes - before
	if writes > 4 {
		t.Fatalf("flush issued %d device writes for 32 contiguous pages", writes)
	}
}

func TestFlushRespectsMaxRunSize(t *testing.T) {
	fs, dev := newSmallCacheFS(t, 4096)
	f, _ := fs.Create("/huge")
	defer f.Close()
	const size = 12 << 20 // 12 MiB contiguous > 4 MiB max run
	if _, err := f.WriteAt(make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().Writes
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writes := dev.Stats().Writes - before
	if writes < 3 {
		t.Fatalf("12 MiB flush used %d writes; max-run cap not applied?", writes)
	}
	if writes > 10 {
		t.Fatalf("12 MiB flush fragmented into %d writes", writes)
	}
}

func TestRMWFillOnPartialPageMiss(t *testing.T) {
	fs, _ := newSmallCacheFS(t, 2)
	f, _ := fs.Create("/rmw")
	defer f.Close()
	// Write a full page, force it out of cache, then partially overwrite.
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xAA}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Evict page 0 by dirtying two other pages (cache holds 2).
	f.WriteAt([]byte{1}, 8192)
	f.WriteAt([]byte{1}, 16384)
	// Partial overwrite of the evicted page must preserve its other bytes.
	if _, err := f.WriteAt([]byte{0xBB}, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0xAA)
		if i == 100 {
			want = 0xBB
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x (RMW fill lost data)", i, b, want)
		}
	}
}

func TestDeviceFailurePropagates(t *testing.T) {
	fs, dev := newSmallCacheFS(t, 1024)
	f, _ := fs.Create("/doomed")
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	dev.InjectFailure(true)
	if err := f.Sync(); err == nil {
		t.Fatal("Sync succeeded with a failed device")
	}
	dev.InjectFailure(false)
	// Dirty state must survive the failed flush and succeed on retry.
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync after device recovery: %v", err)
	}
	got := make([]byte, 4096)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	if _, err := New(dev, Config{Name: "bad"}); err == nil {
		t.Fatal("config without placer accepted")
	}
	tiny := device.SSDProfile("tiny")
	tiny.Capacity = 1 << 20
	tdev := device.New(tiny, simclock.New())
	if _, err := New(tdev, Config{Name: "tiny", NewPlacer: NewExtentPlacer}); err == nil {
		t.Fatal("too-small device accepted")
	}
}

func TestPlacerAccounting(t *testing.T) {
	p := NewExtentPlacer(1 << 20)
	if p.TotalBytes() != 1<<20 || p.UsedBytes() != 0 {
		t.Fatalf("fresh placer: total=%d used=%d", p.TotalBytes(), p.UsedBytes())
	}
	run, err := p.Alloc(10000) // rounds up to 3 pages
	if err != nil {
		t.Fatal(err)
	}
	if run.Len != 12288 {
		t.Fatalf("granted %d bytes, want page-rounded 12288", run.Len)
	}
	if p.UsedBytes() != run.Len {
		t.Fatalf("used = %d", p.UsedBytes())
	}
	p.Free(run.DevOff, run.Len)
	if p.UsedBytes() != 0 {
		t.Fatal("free not accounted")
	}

	b := NewBitmapPlacer(1 << 20)
	r1, err := b.Alloc(1 << 20) // bitmap placer grants one page at a time
	if err != nil || r1.Len != PageSize {
		t.Fatalf("bitmap alloc: %+v, %v", r1, err)
	}
	b.MarkUsed(8*PageSize, 2*PageSize)
	if b.UsedBytes() != 3*PageSize {
		t.Fatalf("used = %d", b.UsedBytes())
	}
}

func TestJournalCompaction(t *testing.T) {
	// A small device gets the minimum 1 MiB journal; enough committed
	// metadata churn must trigger compaction, after which state and
	// recovery still work.
	prof := device.SSDProfile("small")
	prof.Capacity = 16 << 20
	dev := device.New(prof, simclock.New())
	fs, err := New(dev, Config{
		Name:        "compact@ssd",
		JournalFrac: 16, // 1 MiB (floor)
		GroupCommit: 512,
		NewPlacer:   NewExtentPlacer,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/churn")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// ~30k overwrites at rotating offsets: each queues a sizetime record
	// (~45 B); auto group-commits push >1 MiB through the journal.
	payload := []byte("abcd")
	for i := 0; i < 30000; i++ {
		if _, err := f.WriteAt(payload, int64(i%256)*4096); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.Log.UsedBytes() > fs.Log.Size() {
		t.Fatalf("journal overflow: %d > %d", fs.Log.UsedBytes(), fs.Log.Size())
	}
	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatalf("recover after compaction: %v", err)
	}
	fi, err := fs.Stat("/churn")
	if err != nil || fi.Size != 255*4096+4 { // last write: 4 B at block 255
		t.Fatalf("stat after compaction+recovery: %+v, %v", fi, err)
	}
	got := make([]byte, 4)
	f2, err := fs.Open("/churn")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("data after compaction = %q", got)
	}
}

func newSweepTarget(t *testing.T) *fstest.SweepTarget {
	t.Helper()
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	cp := device.NewCrashPoint()
	dev.SetCrashPoint(cp)
	fs, err := New(dev, Config{
		Name:       "test@ssd0",
		Costs:      Costs{},
		CachePages: 64,
		NewPlacer:  NewExtentPlacer,
	})
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
}

func TestCrashSweep(t *testing.T) {
	fstest.RunCrashSweep(t, newSweepTarget)
}

func TestCrashStorm(t *testing.T) {
	fstest.RunCrashStorm(t, newSweepTarget)
}

// Sync reuses its writeback key and page lists, and the device recycles
// the pages it persists, so a steady-state write + fsync cycle costs a few
// small objects (mostly the write's journal record) whatever the number of
// dirty pages — not a fresh 4 MiB merge buffer per flush.
func TestSyncAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("device pages recycle through a sync.Pool, which drops items at random under -race")
	}
	for _, pages := range []int{1, 64} {
		fs, _ := newSmallCacheFS(t, 1024)
		f, err := fs.Create("/f")
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{0x7E}, pages*PageSize)
		cycle := func() {
			if _, err := f.WriteAt(payload, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if b := fstest.AllocBytesPerRun(50, cycle); b >= 64<<10 {
			t.Errorf("%d dirty pages: write + Sync allocates %.0f B per cycle, want < 64 KiB", pages, b)
		}
		if a := testing.AllocsPerRun(50, cycle); a > 16 {
			t.Errorf("%d dirty pages: write + Sync allocates %.1f objects per cycle, want <= 16", pages, a)
		}
		f.Close()
	}
}

// A create, rename or remove whose group commit finds the journal full
// commits through the compaction snapshot alone: recovery replays it once
// and succeeds.
func TestCompactionCommitsOpOnce(t *testing.T) {
	prof := device.SSDProfile("ssd0")
	prof.Capacity = 16 << 20 // the minimum 1 MiB journal
	fs, err := New(device.New(prof, simclock.New()), Config{
		Name:        "test@ssd0",
		GroupCommit: 1, // every op commits before it returns
		NewPlacer:   NewExtentPlacer,
	})
	if err != nil {
		t.Fatal(err)
	}
	fstest.RunCompactionRecovery(t, fs,
		func() int64 { return fs.Log.Size() - fs.Log.UsedBytes() },
		func() error { fs.Crash(); return fs.Recover() })
}

// A punch whose second ragged edge fails after the first edge's
// copy-on-write succeeded must leave the first edge unapplied: its page
// keeps its old block, mapped and allocated. Before the fix, the first
// edge's remap stayed in memory with its old block queued for freeing but
// no record queued, so a later commit freed a block the committed metadata
// still mapped, another file's write reused it, and after a crash page 0
// read back that file's bytes or zeros.
func TestFailedPunchEdgeRollsBack(t *testing.T) {
	const pages = 4
	fs, dev := newSmallCacheFS(t, 8)
	f, _ := fs.Create("/f")
	want := bytes.Repeat([]byte{0xA5}, pages*PageSize)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	dev.InjectFaults(device.FaultPlan{Seed: 7, WriteErrProb: 0.5})
	err := f.PunchHole(100, 3*PageSize)
	dev.ClearFaults()
	if err == nil {
		t.Fatal("punch succeeded; the fault seed no longer fails its second edge")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Create("/g")
	if _, err := g.WriteAt(bytes.Repeat([]byte{0x3C}, pages*PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err = fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[:PageSize]) {
		t.Fatalf("page 0 after the failed punch, a commit and a crash: % x..., want % x...", got[:8], want[:8])
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
