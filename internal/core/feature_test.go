package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

func TestBLTDistributesFileAcrossTiers(t *testing.T) {
	// One file, blocks on multiple tiers, unified view (Figure 2).
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/spread", bytes.Repeat([]byte{0xAA}, 128*1024))
	defer f.Close()
	// Move the middle to SSD and the tail to HDD.
	if _, err := r.m.MigrateRange("/spread", 0, 1, 32*1024, 32*1024); err != nil {
		t.Fatal(err)
	}
	if _, err := r.m.MigrateRange("/spread", 0, 2, 96*1024, 32*1024); err != nil {
		t.Fatal(err)
	}
	usage := r.m.TierUsage()
	if usage[0] != 64*1024 || usage[1] != 32*1024 || usage[2] != 32*1024 {
		t.Fatalf("usage = %v", usage)
	}
	// The user's view is one contiguous file.
	got := make([]byte, 128*1024)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 128*1024)) {
		t.Fatal("distributed file reads wrong")
	}
	exts, _ := f.Extents()
	if len(exts) != 1 || exts[0].Off != 0 || exts[0].Len != 128*1024 {
		t.Fatalf("logical extents = %+v, want one contiguous run", exts)
	}
	// Underlying sparse files each hold only their share, at preserved
	// offsets (§2.2).
	tiers := r.m.Tiers()
	for _, tier := range tiers {
		fi, err := tier.FS.Stat("/spread")
		if err != nil {
			t.Fatalf("tier %s: %v", tier.FS.Name(), err)
		}
		if fi.Blocks >= 128*1024 {
			t.Fatalf("tier %s holds the whole file (%d bytes)", tier.FS.Name(), fi.Blocks)
		}
	}
}

func TestMetadataAffinityFollowsWrites(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	f := writeFile(t, r.m, "/aff", []byte("0123456789"))
	defer f.Close()
	mf, err := r.m.lookupFile("/aff")
	if err != nil {
		t.Fatal(err)
	}

	mf.mu.Lock()
	aff := mf.aff
	mf.mu.Unlock()
	if aff.Size != 1 || aff.MTime != 1 {
		t.Fatalf("affinity after write = %+v, want tier 1", aff)
	}

	// Extend the file with blocks landing on tier 2: size owner moves.
	r.m.SetPolicy(policy.Pinned{Tier: 2})
	if _, err := f.WriteAt([]byte("tail"), 8192); err != nil {
		t.Fatal(err)
	}
	mf.mu.Lock()
	aff = mf.aff
	mf.mu.Unlock()
	if aff.Size != 2 {
		t.Fatalf("size owner = %d after tier-2 append, want 2", aff.Size)
	}
	if aff.MTime != 2 {
		t.Fatalf("mtime owner = %d, want 2", aff.MTime)
	}

	// A read served by tier 1 blocks makes tier 1 the atime owner.
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if owner := mf.affATime.Load(); owner != 1 {
		t.Fatalf("atime owner = %d, want 1", owner)
	}
}

func TestLazyMetaSyncPushesToOwner(t *testing.T) {
	clkRig := newRig(t, policy.Pinned{Tier: 0}, false)
	m := clkRig.m
	m.syncEvery = 4 // sync every 4 ops
	f := writeFile(t, m, "/lazy", nil)
	defer f.Close()
	for i := 0; i < 10; i++ {
		if _, err := f.WriteAt([]byte("x"), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The nova sparse file's size must have been refreshed by the lazy
	// sync (10 single-byte writes, sync every 4).
	nova := m.Tiers()[0].FS
	fi, err := nova.Stat("/lazy")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size < 8 {
		t.Fatalf("owner FS size = %d; lazy sync never ran", fi.Size)
	}
	// The collective inode is always exact.
	mfi, _ := m.Stat("/lazy")
	if mfi.Size != 10 {
		t.Fatalf("collective size = %d", mfi.Size)
	}
}

func TestSCMCacheServesRepeatReads(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 2}, true) // data on HDD
	payload := bytes.Repeat([]byte{0x5C}, 64*1024)
	f := writeFile(t, r.m, "/cached", payload)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Restart the stack so the extlite DRAM page cache is cold: the SCM
	// cache, not the native FS cache, must serve the repeat reads.
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EnableSCMCache(0, 8<<20); err != nil {
		t.Fatal(err)
	}
	f, err := r.m.Open("/cached")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	buf := make([]byte, 4096)
	hddBefore := r.hdd.Stats()
	if _, err := f.ReadAt(buf, 0); err != nil { // miss: goes to HDD
		t.Fatal(err)
	}
	miss := r.hdd.Stats().Sub(hddBefore)
	if miss.Reads == 0 {
		t.Fatal("first read did not touch HDD")
	}
	hddBefore = r.hdd.Stats()
	if _, err := f.ReadAt(buf, 0); err != nil { // hit: served from SCM
		t.Fatal(err)
	}
	hit := r.hdd.Stats().Sub(hddBefore)
	if hit.Reads != 0 {
		t.Fatalf("repeat read touched HDD %d times despite SCM cache", hit.Reads)
	}
	if !bytes.Equal(buf, payload[:4096]) {
		t.Fatal("cached read returned wrong data")
	}
	stats := r.m.CacheStats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("cache stats = %+v", stats)
	}
}

func TestSCMCacheInvalidatedByWrite(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 2}, false)
	if err := r.m.EnableSCMCache(0, 8<<20); err != nil {
		t.Fatal(err)
	}
	f := writeFile(t, r.m, "/wc", bytes.Repeat([]byte{1}, 8192))
	defer f.Close()
	buf := make([]byte, 8192)
	f.ReadAt(buf, 0) // populate cache
	if _, err := f.WriteAt(bytes.Repeat([]byte{2}, 8192), 0); err != nil {
		t.Fatal(err)
	}
	f.ReadAt(buf, 0)
	if !bytes.Equal(buf, bytes.Repeat([]byte{2}, 8192)) {
		t.Fatal("stale data served from SCM cache after overwrite")
	}
}

func TestSCMCacheRejectsSlowTier(t *testing.T) {
	r := newRig(t, policy.DefaultLRU(), false)
	if err := r.m.EnableSCMCache(r.ids.hdd, 8<<20); err == nil {
		t.Fatal("SCM cache accepted an HDD tier")
	}
}

func TestPolicyRunnerLRUDemotesAndPromotes(t *testing.T) {
	// Small PM tier: filling it past the watermark must demote cold files
	// to SSD; touching a demoted file must promote it back.
	r := newRig(t, policy.DefaultLRU(), false)
	// Shrink the PM tier's capacity in the policy's eyes by using a small
	// PM device: recreate rig pieces is heavy, instead write enough to
	// cross 90% of 256 MiB? Too big for a unit test — use a custom policy
	// watermark trick instead: a tiny high watermark demotes immediately.
	r.m.SetPolicy(&policy.LRU{HighWatermark: 0.0000001, LowWatermark: 0.00000005, PromoteWindow: time.Millisecond})

	var files []vfs.File
	for i := 0; i < 4; i++ {
		f := writeFile(t, r.m, fmt.Sprintf("/lru%d", i), bytes.Repeat([]byte{byte(i)}, 64*1024))
		files = append(files, f)
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()

	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	usage := r.m.TierUsage()
	if usage[r.ids.ssd] == 0 {
		t.Fatalf("nothing demoted: %v", usage)
	}

	// With relaxed watermarks and all files recently touched, the next
	// round promotes toward the fast tiers (§3: "promotes data back upon
	// access").
	r.m.SetPolicy(&policy.LRU{HighWatermark: 0.99, LowWatermark: 0.9, PromoteWindow: time.Hour})
	buf := make([]byte, 16)
	for _, f := range files {
		f.ReadAt(buf, 0)
	}
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	usage = r.m.TierUsage()
	if usage[r.ids.pm] == 0 {
		t.Fatalf("nothing promoted back to PM: %v", usage)
	}
	// All files still read correctly wherever they landed.
	for i, f := range files {
		got := make([]byte, 64*1024)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64*1024)) {
			t.Fatalf("file %d corrupted by policy-driven migration", i)
		}
	}
}

func TestReadCostsIncludeMuxOverhead(t *testing.T) {
	// E3's premise: a 1-byte Mux read costs a fixed software increment over
	// the same read on the native FS.
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/ov", make([]byte, 8192))
	defer f.Close()

	nova := r.m.Tiers()[0].FS
	nf, err := nova.Open("/ov")
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()

	buf := make([]byte, 1)
	t0 := r.clk.Now()
	nf.ReadAt(buf, 100)
	nativeCost := r.clk.Now() - t0

	t0 = r.clk.Now()
	f.ReadAt(buf, 100)
	muxCost := r.clk.Now() - t0

	want := r.m.costs.DispatchOp + r.m.costs.BLTLookup + r.m.costs.OCCCheck
	got := muxCost - nativeCost
	if got < want || got > want+2*want {
		t.Fatalf("mux read overhead = %v, want about %v", got, want)
	}
}

func TestStatServedFromCollectiveInode(t *testing.T) {
	// Stat must not generate downward I/O (§2.3 collective inode).
	r := newRig(t, policy.Pinned{Tier: 2}, false)
	f := writeFile(t, r.m, "/s", make([]byte, 4096))
	defer f.Close()
	before := r.hdd.Stats()
	for i := 0; i < 100; i++ {
		if _, err := r.m.Stat("/s"); err != nil {
			t.Fatal(err)
		}
	}
	delta := r.hdd.Stats().Sub(before)
	if delta.Reads != 0 || delta.Writes != 0 {
		t.Fatalf("Stat generated device I/O: %+v", delta)
	}
}

func TestAddTierAtRuntime(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/pre", bytes.Repeat([]byte{1}, 32*1024))
	defer f.Close()

	// Register a fourth tier (second SSD) at runtime and migrate onto it.
	clk := r.clk
	newDev := r.ssd
	_ = newDev
	xtra, err := newXFSTier(clk)
	if err != nil {
		t.Fatal(err)
	}
	id := r.m.AddTier(xtra.fs, xtra.prof)
	if _, err := r.m.Migrate("/pre", 0, id); err != nil {
		t.Fatalf("migration to runtime-added tier: %v", err)
	}
	got := make([]byte, 32*1024)
	f.ReadAt(got, 0)
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, 32*1024)) {
		t.Fatal("data corrupted moving to new tier")
	}
}

func TestQuotaPolicyEndToEnd(t *testing.T) {
	// A /scratch prefix is capped at 128 KiB of PM; the Policy Runner must
	// push the excess down while leaving other files alone.
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	r.m.SetPolicy(&policy.QuotaPolicy{
		Base:   policy.Pinned{Tier: 0},
		Quotas: []policy.Quota{{Prefix: "/scratch/", Tier: 0, Bytes: 128 << 10}},
	})
	r.m.Mkdir("/scratch")
	for i := 0; i < 4; i++ {
		f := writeFile(t, r.m, fmt.Sprintf("/scratch/f%d", i), bytes.Repeat([]byte{byte(i)}, 64<<10))
		f.Close()
	}
	keeper := writeFile(t, r.m, "/pinned", bytes.Repeat([]byte{9}, 64<<10))
	defer keeper.Close()

	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	// /scratch on PM must now be within budget.
	var scratchPM int64
	nova := r.m.Tiers()[0].FS
	for i := 0; i < 4; i++ {
		if fi, err := nova.Stat(fmt.Sprintf("/scratch/f%d", i)); err == nil {
			scratchPM += fi.Blocks
		}
	}
	if scratchPM > 128<<10 {
		t.Fatalf("/scratch holds %d bytes on PM, quota is %d", scratchPM, 128<<10)
	}
	// The non-matching file is untouched.
	if fi, _ := nova.Stat("/pinned"); fi.Blocks != 64<<10 {
		t.Fatalf("/pinned disturbed: %d bytes on PM", fi.Blocks)
	}
	// All scratch data still readable.
	for i := 0; i < 4; i++ {
		f, err := r.m.Open(fmt.Sprintf("/scratch/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 64<<10)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64<<10)) {
			t.Fatalf("scratch file %d corrupted by quota demotion", i)
		}
	}
}

func TestPolicyRunnerBackground(t *testing.T) {
	r := newRig(t, policy.DefaultLRU(), false)
	f := writeFile(t, r.m, "/bg", bytes.Repeat([]byte{1}, 64<<10))
	defer f.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		r.m.PolicyRunner(time.Millisecond, stop)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond) // a few ticks
	close(stop)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("PolicyRunner did not stop")
	}
}

func TestSCMCacheRemoveFile(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 2}, false)
	if err := r.m.EnableSCMCache(0, 4<<20); err != nil {
		t.Fatal(err)
	}
	f := writeFile(t, r.m, "/gone", bytes.Repeat([]byte{3}, 16<<10))
	buf := make([]byte, 4096)
	f.ReadAt(buf, 0) // populate SCM cache
	f.Close()
	if r.m.CacheStats().UsedSlots == 0 {
		t.Fatal("cache never populated")
	}
	if err := r.m.Remove("/gone"); err != nil {
		t.Fatal(err)
	}
	if got := r.m.CacheStats().UsedSlots; got != 0 {
		t.Fatalf("removed file left %d cache slots", got)
	}
}

func TestBLTStats(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/s", bytes.Repeat([]byte{1}, 64<<10))
	defer f.Close()
	if _, err := r.m.MigrateRange("/s", 0, 1, 16<<10, 16<<10); err != nil {
		t.Fatal(err)
	}
	files, runs, mapped, table := r.m.BLTStats()
	if files != 1 || runs < 2 || mapped != 64<<10 || table <= 0 {
		t.Fatalf("BLTStats = %d files, %d runs, %d mapped, %d table", files, runs, mapped, table)
	}
	if r.m.Name() != "mux" {
		t.Fatalf("Name = %q", r.m.Name())
	}
}

func TestAddTierConcurrentWithIO(t *testing.T) {
	// Registering and removing tiers at runtime must be safe against
	// in-flight I/O, metrics scrapes and health queries, and a tier must
	// serve I/O as soon as it is added: every reader reaches a tier's state
	// through the one published tier table (regression: the usage-counter
	// table used to reallocate under readers' feet).
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/busy", bytes.Repeat([]byte{1}, 64<<10))
	defer f.Close()
	spare, err := newXFSTier(r.clk)
	if err != nil {
		t.Fatal(err)
	}
	spareID := r.m.AddTier(spare.fs, spare.prof) // never holds data

	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(name string, op func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(i); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}()
	}
	busyBuf := make([]byte, 4096)
	loop("busy I/O", func(i int) error {
		if _, err := f.WriteAt(busyBuf, int64(i%16)*4096); err != nil {
			return err
		}
		_, err := f.ReadAt(busyBuf, 0)
		return err
	})
	loop("metrics", func(int) error { return r.m.WriteMetrics(io.Discard) })
	loop("health", func(int) error {
		if len(r.m.TierHealth()) < 3 {
			return fmt.Errorf("TierHealth lost a tier")
		}
		return nil
	})

	// Each added tier takes a file, then rewrites and reads it in place.
	onNewTier := func(id int) error {
		path := fmt.Sprintf("/on%d", id)
		want := bytes.Repeat([]byte{byte(id)}, 16<<10)
		fh, err := r.m.Create(path)
		if err != nil {
			return err
		}
		defer fh.Close()
		if _, err := fh.WriteAt(want, 0); err != nil {
			return err
		}
		if _, err := r.m.Migrate(path, r.ids.pm, id); err != nil {
			return err
		}
		if _, err := fh.WriteAt(want[:4096], 4096); err != nil {
			return err
		}
		got := make([]byte, len(want))
		if _, err := fh.ReadAt(got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s reads back wrong bytes from tier %d", path, id)
		}
		if used := r.m.TierUsage()[id]; used != int64(len(want)) {
			return fmt.Errorf("tier %d accounts %d bytes, want %d", id, used, len(want))
		}
		return nil
	}
	added := make(chan int)
	newTierIO := make(chan error, 1)
	go func() {
		var first error
		for id := range added {
			if first == nil {
				first = onNewTier(id)
			}
		}
		newTierIO <- first
	}()

	for i := 0; i < 8; i++ {
		xt, err := newXFSTier(r.clk)
		if err != nil {
			t.Fatal(err)
		}
		added <- r.m.AddTier(xt.fs, xt.prof)
		if i == 3 {
			if err := r.m.RemoveTier(spareID); err != nil {
				t.Errorf("remove the drained tier: %v", err)
			}
		}
	}
	close(added)
	if err := <-newTierIO; err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if got := len(r.m.Tiers()); got != 11 {
		t.Fatalf("tiers = %d, want 11", got)
	}
	if _, err := r.m.tier(spareID); !errors.Is(err, ErrUnknownTier) {
		t.Fatalf("removed tier resolves: %v", err)
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}
