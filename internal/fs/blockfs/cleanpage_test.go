package blockfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/pagecache"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// The page cache keeps no bytes for a clean page: the device at the
// page's current mapping is its only copy. Under a seeded mix of writes,
// reads, truncates, punches, Syncs, crash-recoveries and transient write
// faults, on both flavors' placers and a cache of a few pages, every
// resident page — clean pages read off the device, dirty ones from their
// buffer — must equal an in-memory reference after every op, and every
// read must return the reference bytes.
func TestCleanPagesMatchDevice(t *testing.T) {
	for _, flavor := range []struct {
		name   string
		placer func(int64) Placer
	}{{"extent", NewExtentPlacer}, {"bitmap", NewBitmapPlacer}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", flavor.name, seed), func(t *testing.T) {
				runCleanPageModel(t, flavor.placer, seed)
			})
		}
	}
}

func runCleanPageModel(t *testing.T, placer func(int64) Placer, seed int64) {
	const (
		files    = 3
		maxPages = 12
		ops      = 800
	)
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := New(dev, Config{Name: "model@ssd0", CachePages: 6, GroupCommit: 32, NewPlacer: placer})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ref := make([][]byte, files)
	handles := make([]vfs.File, files)
	open := func() {
		for i := range handles {
			if handles[i], err = fs.Open(fmt.Sprintf("/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range handles {
		if _, err := fs.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	open()

	faulty := false
	// do runs a mutating op; an op that meets an injected fault is
	// retried on a healthy device, so its effect always lands.
	do := func(what string, op func() error) {
		err := op()
		if err == nil {
			return
		}
		if !faulty || !device.IsTransient(err) {
			t.Fatalf("%s: %v", what, err)
		}
		dev.ClearFaults()
		faulty = false
		if err := op(); err != nil {
			t.Fatalf("%s retried on a healthy device: %v", what, err)
		}
	}
	span := func() (off, n int64) {
		off = rng.Int63n(maxPages * PageSize)
		n = 1 + rng.Int63n(min(3*PageSize, maxPages*PageSize-off))
		return off, n
	}

	for step := 0; step < ops; step++ {
		i := rng.Intn(files)
		f := handles[i]
		var what string
		switch r := rng.Intn(100); {
		case r < 40:
			off, n := span()
			p := make([]byte, n)
			rng.Read(p)
			what = fmt.Sprintf("write %d@%d", n, off)
			do(what, func() error { _, err := f.WriteAt(p, off); return err })
			if end := off + n; end > int64(len(ref[i])) {
				ref[i] = append(ref[i], make([]byte, end-int64(len(ref[i])))...)
			}
			copy(ref[i][off:], p)
		case r < 65:
			off, n := span()
			what = fmt.Sprintf("read %d@%d", n, off)
			got := make([]byte, n)
			var m int
			do(what, func() error {
				var err error
				m, err = f.ReadAt(got, off)
				if errors.Is(err, io.EOF) {
					err = nil
				}
				return err
			})
			want := []byte{}
			if off < int64(len(ref[i])) {
				want = ref[i][off:min(off+n, int64(len(ref[i])))]
			}
			if !bytes.Equal(got[:m], want) {
				t.Fatalf("step %d: %s of /f%d returned other bytes than written", step, what, i)
			}
		case r < 73:
			size := rng.Int63n(maxPages * PageSize)
			what = fmt.Sprintf("truncate %d", size)
			do(what, func() error { return f.Truncate(size) })
			if size < int64(len(ref[i])) {
				ref[i] = ref[i][:size]
			} else {
				ref[i] = append(ref[i], make([]byte, size-int64(len(ref[i])))...)
			}
		case r < 81:
			off, n := span()
			what = fmt.Sprintf("punch %d@%d", n, off)
			do(what, func() error { return f.PunchHole(off, n) })
			if off < int64(len(ref[i])) {
				clear(ref[i][off:min(off+n, int64(len(ref[i])))])
			}
		case r < 89:
			what = "sync"
			do(what, fs.Sync)
		case r < 93:
			// Crash after a successful Sync, so the reference survives.
			what = "crash"
			do("sync before crash", fs.Sync)
			fs.Crash()
			if err := fs.Recover(); err != nil {
				t.Fatalf("step %d: recover: %v", step, err)
			}
			open()
		default:
			faulty = !faulty
			what = fmt.Sprintf("faults %v", faulty)
			if faulty {
				dev.InjectFaults(device.FaultPlan{Seed: seed*1000 + int64(step), WriteErrProb: 0.3})
			} else {
				dev.ClearFaults()
			}
		}
		if err := checkCachedPages(fs, ref, maxPages+1); err != nil {
			t.Fatalf("step %d, after %s: %v", step, what, err)
		}
		if err := fs.CheckConsistency(); err != nil {
			t.Fatalf("step %d, after %s: %v", step, what, err)
		}
	}
}

// checkCachedPages compares every resident page of the files /f<i> with
// ref[i] (zero past its end): a clean page as the device holds it at the
// page's mapping, a dirty one as its buffer holds it.
func checkCachedPages(fs *FS, ref [][]byte, pages int64) error {
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	img := make([]byte, PageSize)
	for i, data := range ref {
		path := fmt.Sprintf("/f%d", i)
		node, err := fs.NS.Lookup(path)
		if err != nil {
			return err
		}
		ino := fs.Inodes[node.Ino]
		for pg := int64(0); pg < pages; pg++ {
			cached, resident := fs.cache.Peek(pagecache.Key{File: node.Ino, Page: pg})
			if !resident {
				continue
			}
			state := "dirty"
			if cached == nil {
				state = "clean"
				if err := fs.peekClean(ino, pg, 0, img); err != nil {
					return err
				}
				cached = img
			}
			want := make([]byte, PageSize)
			if lo := pg * PageSize; lo < int64(len(data)) {
				copy(want, data[lo:])
			}
			if !bytes.Equal(cached, want) {
				return fmt.Errorf("%s page %d of %s differs from the reference", state, pg, path)
			}
		}
	}
	return nil
}

// A clean hit is a DRAM copy: it succeeds on a failed device, issues no
// device read and advances the clock by exactly the DRAM hit cost.
func TestCleanHitCostsOnlyDRAM(t *testing.T) {
	fs, dev := newSmallCacheFS(t, 16) // zero software-path costs
	f, _ := fs.Create("/f")
	defer f.Close()
	want := bytes.Repeat([]byte{0xC3}, PageSize)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	node, err := fs.NS.Lookup("/f")
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := fs.cache.Peek(pagecache.Key{File: node.Ino, Page: 0}); !ok || data != nil {
		t.Fatalf("synced page: resident %v, %d bytes; want resident clean", ok, len(data))
	}
	dev.InjectFailure(true)
	defer dev.InjectFailure(false)
	stats, before := dev.Stats(), dev.Clock().Now()
	got := make([]byte, PageSize)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("clean hit on a failed device: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("clean hit returned other bytes than written")
	}
	if s := dev.Stats(); s.Reads != stats.Reads || s.BytesRead != stats.BytesRead {
		t.Fatalf("clean hit read the device: %+v -> %+v", stats, s)
	}
	if cost, hit := dev.Clock().Now()-before, device.DRAMProfile("cache").ReadLatency; cost != hit {
		t.Fatalf("clean hit advanced the clock %v, want the DRAM hit cost %v", cost, hit)
	}
}

// A write that fails part-way leaves the holes it was filling as holes: no
// page it cached there survives, and the blocks it had allocated — one of
// which an eviction already wrote — return to the allocator zeroed, so a
// later partial write into one reads no stale bytes around its own.
func TestFailedWriteLeavesHoles(t *testing.T) {
	const pages = 4
	for seed := int64(1); seed <= 64; seed++ {
		fs, dev := newSmallCacheFS(t, 1)
		f, _ := fs.Create("/f")
		if err := f.Truncate(pages * PageSize); err != nil {
			t.Fatal(err)
		}
		// Find a fault sequence in which an eviction writes one of the new
		// pages back and a later write-back of the same WriteAt fails.
		dev.InjectFaults(device.FaultPlan{Seed: seed, WriteErrProb: 0.5})
		writes := dev.Stats().Writes
		_, err := f.WriteAt(bytes.Repeat([]byte{0xEE}, pages*PageSize), 0)
		dev.ClearFaults()
		if err == nil || dev.Stats().Writes == writes {
			continue
		}
		got := make([]byte, pages*PageSize)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Fatal("a failed write left data in the holes it was filling")
		}
		g, _ := fs.Create("/g")
		if _, err := g.WriteAt([]byte{1}, 100); err != nil {
			t.Fatal(err)
		}
		got = got[:101]
		if _, err := g.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:100], make([]byte, 100)) {
			t.Fatal("a block freed by a failed write kept the bytes its eviction wrote")
		}
		if err := fs.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no seed made an eviction succeed before a later one failed")
}
