package device

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"muxfs/internal/bufpool"
	"muxfs/internal/simclock"
)

// pagesInUse is how many arena pages are held, by any holder.
func pagesInUse() int {
	mapped, free := bufpool.PageStats()
	return mapped - free
}

// takeFreePages takes every page on the arena's free list, so a test sees
// what the list held and the next GetPage maps a new chunk unless a page
// comes back first. Return them with bufpool.PutPage.
func takeFreePages() []*[pageSize]byte {
	_, free := bufpool.PageStats()
	out := make([]*[pageSize]byte, free)
	for i := range out {
		out[i] = bufpool.GetPage()
	}
	return out
}

// settlePages collects garbage and waits until the arena's pages in use
// stop changing, so the pages of devices earlier tests dropped are back
// before a test counts its own.
func settlePages() {
	runtime.GC()
	last, still := pagesInUse(), 0
	for deadline := time.Now().Add(time.Second); still < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if n := pagesInUse(); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
}

// waitPagesInUse collects garbage and polls for up to a second until at
// most max arena pages are in use, and reports whether that happened.
func waitPagesInUse(max int) bool {
	runtime.GC()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if pagesInUse() <= max {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// Steady-state writeback to a resident page — overwrite, then a full
// barrier — recycles the shadow copy instead of allocating one per cycle.
func TestOverwritePersistAllAllocatesNothing(t *testing.T) {
	d, _ := newTestDev(t, SSDProfile("ssd0"))
	page := bytes.Repeat([]byte{0x5A}, pageSize)
	d.WriteAt(page, 0)
	d.PersistAll()
	if a := testing.AllocsPerRun(100, func() {
		d.WriteAt(page, 0)
		d.PersistAll()
	}); a != 0 {
		t.Fatalf("overwrite + PersistAll allocates %.1f objects per cycle, want 0", a)
	}
}

// A whole-page Discard hands the dropped page to the shadow instead of
// copying it, and the next write to the page draws a recycled buffer.
func TestWholePageDiscardAllocatesNothing(t *testing.T) {
	d, _ := newTestDev(t, SSDProfile("ssd0"))
	page := bytes.Repeat([]byte{0x5A}, pageSize)
	if a := testing.AllocsPerRun(100, func() {
		d.WriteAt(page, 0)
		d.PersistAll()
		d.Discard(0, pageSize)
	}); a != 0 {
		t.Fatalf("write + PersistAll + Discard allocates %.1f objects per cycle, want 0", a)
	}
}

// Recycled buffers must never leak old contents: a new page reads as zeros
// outside what was written to it, and crash-revert restores the durable
// bytes a Discard dropped, whether or not the page was already shadowed.
func TestRecycledPagesKeepContents(t *testing.T) {
	d, _ := newTestDev(t, SSDProfile("ssd0"))
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, pageSize) }
	read := func(pg int64) []byte {
		got := make([]byte, pageSize)
		d.ReadAt(got, pg*pageSize)
		return got
	}
	// Shadows of pages 0-15 go back to the arena on PersistAll.
	const shadowed = 16
	for pg := int64(0); pg < shadowed; pg++ {
		d.WriteAt(fill(0xFF), pg*pageSize)
	}
	d.PersistAll()
	for pg := int64(0); pg < shadowed; pg++ {
		d.WriteAt(fill(0xEE), pg*pageSize)
	}
	shadows := make(map[*[pageSize]byte]bool)
	for _, dup := range d.shadow {
		shadows[dup] = true
	}
	d.PersistAll()
	free := takeFreePages()
	back := 0
	for _, p := range free {
		if shadows[p] {
			back++
		}
		for i := range p {
			p[i] = 0xA5 // stale contents a new page must not show
		}
	}
	if back != shadowed {
		t.Fatalf("PersistAll returned %d of %d shadow copies to the arena", back, shadowed)
	}
	for _, p := range free {
		bufpool.PutPage(p)
	}

	// A partial write to a new page lands in a recycled buffer.
	d.WriteAt([]byte("hello"), 30*pageSize+100)
	want := make([]byte, pageSize)
	copy(want[100:], "hello")
	if !bytes.Equal(read(30), want) {
		t.Fatal("new page built from a recycled buffer shows stale bytes")
	}

	// Page 0 unshadowed: the discarded page becomes its own shadow.
	d.Discard(0, pageSize)
	// Page 1 shadowed by an overwrite: the discarded page is recycled.
	d.WriteAt(fill(0xCC), pageSize)
	d.Discard(pageSize, pageSize)
	// Reuse both through partial writes before the crash.
	d.WriteAt([]byte{1}, 20*pageSize)
	d.WriteAt([]byte{2}, 21*pageSize)
	if got := read(21); got[0] != 2 || !bytes.Equal(got[1:], make([]byte, pageSize-1)) {
		t.Fatal("partial write to a new page shows stale bytes")
	}
	d.Crash()
	for pg := int64(0); pg < 2; pg++ {
		if !bytes.Equal(read(pg), fill(0xEE)) {
			t.Fatalf("page %d: crash did not restore the durable contents a Discard dropped", pg)
		}
	}
	if !bytes.Equal(read(20), make([]byte, pageSize)) {
		t.Fatal("unpersisted new page survived the crash")
	}
}

// The page arena is shared by every device: the shadows one device's
// barrier frees feed another device's writes to new pages, with nothing
// allocated and nothing mapped.
func TestBarrierFreesFeedOtherDevice(t *testing.T) {
	const (
		perCycle = 4
		cycles   = 101 // AllocsPerRun's warm-up run plus 100
		span     = perCycle * cycles
	)
	page := bytes.Repeat([]byte{0x5A}, pageSize)
	src, _ := newTestDev(t, SSDProfile("src"))
	dst, _ := newTestDev(t, SSDProfile("dst"))
	// Both devices touch every page number up front, so their maps have
	// room for the whole run; then the free list is taken, so dst can only
	// draw what src frees.
	for _, d := range []*Device{src, dst} {
		for pg := int64(0); pg < span; pg++ {
			d.WriteAt(page, pg*pageSize)
		}
		d.PersistAll()
	}
	dst.Discard(0, span*pageSize)
	dst.PersistAll()
	held := takeFreePages()
	defer func() {
		for _, p := range held {
			bufpool.PutPage(p)
		}
	}()
	mapped, _ := bufpool.PageStats()

	next := int64(0)
	a := testing.AllocsPerRun(cycles-1, func() {
		off := next * pageSize
		next += perCycle
		// src drops durable pages: each becomes its own shadow, and the
		// barrier frees them.
		src.Discard(off, perCycle*pageSize)
		src.PersistAll()
		// dst writes as many new pages.
		for i := int64(0); i < perCycle; i++ {
			dst.WriteAt(page, off+i*pageSize)
		}
		dst.PersistAll()
	})
	if a != 0 {
		t.Fatalf("src discard + barrier, dst new-page writes: %.1f allocations per cycle, want 0", a)
	}
	if m, _ := bufpool.PageStats(); m != mapped {
		t.Fatalf("the arena mapped %d more pages while dst drew only what src freed", m-mapped)
	}
	got := make([]byte, pageSize)
	for pg := int64(0); pg < span; pg++ {
		dst.ReadAt(got, pg*pageSize)
		if !bytes.Equal(got, page) {
			t.Fatalf("dst page %d: wrong contents after the run", pg)
		}
	}
}

// A device nothing references gives its pages back: 64 devices filled
// with 8 MiB each, shadows included, and dropped one after another never
// make the arena map more than two devices' worth.
func TestDroppedDevicesReturnPages(t *testing.T) {
	if !bufpool.PagesOffHeap {
		t.Skip("pages on the Go heap: the GC frees a dropped device's pages with it")
	}
	prof := SSDProfile("drop")
	prof.Capacity = 8 << 20
	const devPages = 8 << 20 / pageSize
	settlePages()
	base := pagesInUse()
	mapped0, _ := bufpool.PageStats()
	data := bytes.Repeat([]byte{0x3C}, 1<<20)
	for i := 0; i < 64; i++ {
		d, _ := newTestDev(t, prof)
		for off := int64(0); off < prof.Capacity; off += int64(len(data)) {
			d.WriteAt(data, off)
		}
		d.PersistAll()
		d.WriteAt(data, 0) // 256 shadow copies
		if !waitPagesInUse(base) {
			t.Fatalf("device %d: %d arena pages still in use 1 s after it was dropped, want <= %d", i, pagesInUse(), base)
		}
		if m, _ := bufpool.PageStats(); m-mapped0 > 2*devPages {
			t.Fatalf("after %d dropped devices the arena mapped %d more pages, want <= %d", i+1, m-mapped0, 2*devPages)
		}
	}
}

// Crash returns to the arena every page it drops: all of a DRAM device's
// pages and shadows, and each page a revert replaces or deletes on a
// persistent device. Pages in use go back to the count before the
// unpersisted writes.
func TestCrashReturnsPages(t *testing.T) {
	data := bytes.Repeat([]byte{0x77}, 16*pageSize)
	for _, prof := range []Profile{DRAMProfile("dram0"), SSDProfile("ssd0")} {
		settlePages()
		d, _ := newTestDev(t, prof)
		if prof.Class != DRAM { // durable contents the crash keeps
			d.WriteAt(data, 0)
			d.PersistAll()
		}
		before := pagesInUse()
		d.WriteAt(data, 0)                    // overwrites: shadows
		d.WriteAt(data, 64*pageSize)          // new pages
		d.WriteAt(data[:100], 100*pageSize+5) // a partial new page
		d.Discard(4*pageSize, 2*pageSize)     // dropped pages become shadows
		d.Crash()
		if after := pagesInUse(); after > before {
			t.Errorf("%s: %d pages in use after Crash, %d before the unpersisted writes: %d leaked",
				prof.Name, after, before, after-before)
		}
		if prof.Class != DRAM {
			got := make([]byte, len(data))
			d.ReadAt(got, 0)
			if !bytes.Equal(got, data) {
				t.Errorf("%s: Crash lost durable contents", prof.Name)
			}
		}
		runtime.KeepAlive(d)
	}
}

// A barrier returns the shadow copies of the pages it makes durable, by
// range (Persist) or whole (PersistAll).
func TestBarriersReturnShadows(t *testing.T) {
	data := bytes.Repeat([]byte{0x24}, 8*pageSize)
	for _, whole := range []bool{false, true} {
		d, _ := newTestDev(t, SSDProfile("ssd0"))
		d.WriteAt(data, 0)
		d.PersistAll()
		d.WriteAt(data, 0) // eight shadow copies
		before := pagesInUse()
		if whole {
			d.PersistAll()
		} else {
			d.Persist(0, int64(len(data)))
		}
		if back := before - pagesInUse(); back < 8 {
			t.Errorf("whole=%v: the barrier returned %d of 8 shadow copies to the arena", whole, back)
		}
		runtime.KeepAlive(d)
	}
}

// A barrier torn by a crash point returns the shadows of the pages it did
// flush, and the crash returns the rest: pages in use go back to the count
// before the unpersisted overwrites.
func TestTornPersistReturnsPages(t *testing.T) {
	settlePages()
	d, _ := newTestDev(t, SSDProfile("ssd0"))
	cp := NewCrashPoint()
	d.SetCrashPoint(cp)
	data := bytes.Repeat([]byte{0x42}, 8*pageSize)
	d.WriteAt(data, 0)
	if err := d.PersistAll(); err != nil {
		t.Fatal(err)
	}
	before := pagesInUse()
	d.WriteAt(bytes.Repeat([]byte{0x43}, len(data)), 0)
	cp.Arm(3)
	if err := d.Persist(0, int64(len(data))); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("torn persist: %v, want ErrCrashPoint", err)
	}
	d.Crash()
	cp.Reset()
	if after := pagesInUse(); after > before {
		t.Fatalf("%d pages in use after a torn Persist and Crash, %d before the overwrites: %d leaked",
			after, before, after-before)
	}
}

// A vectored write is one request: the same bytes, virtual time and
// statistics as a WriteAt of the joined buffers.
func TestWriteVecAtMatchesWriteAt(t *testing.T) {
	for _, prof := range []Profile{HDDProfile("hdd0"), PMProfile("pmem0")} {
		one, oneClk := newTestDev(t, prof)
		vec, vecClk := newTestDev(t, prof)
		parts := [][]byte{
			bytes.Repeat([]byte{1}, pageSize),
			bytes.Repeat([]byte{2}, 100),
			bytes.Repeat([]byte{3}, 2*pageSize+7),
		}
		off := int64(3*pageSize + 50)
		n1, err1 := one.WriteAt(bytes.Join(parts, nil), off)
		n2, err2 := vec.WriteVecAt(parts, off)
		if err1 != nil || err2 != nil || n1 != n2 {
			t.Fatalf("%s: WriteAt %d, %v; WriteVecAt %d, %v", prof.Name, n1, err1, n2, err2)
		}
		if oneClk.Now() != vecClk.Now() || one.Stats() != vec.Stats() {
			t.Fatalf("%s: WriteVecAt charged %v %+v, WriteAt %v %+v",
				prof.Name, vecClk.Now(), vec.Stats(), oneClk.Now(), one.Stats())
		}
		a, b := make([]byte, 8*pageSize), make([]byte, 8*pageSize)
		one.ReadAt(a, 0)
		vec.ReadAt(b, 0)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: WriteVecAt stored different bytes", prof.Name)
		}
	}
	d, _ := newTestDev(t, SSDProfile("ssd0"))
	if _, err := d.WriteVecAt([][]byte{nil, {}}, 0); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("empty vectored write: %v, want ErrShortBuffer", err)
	}
}

// BenchmarkDeviceWrite4KPersist is a steady-state 4 KiB overwrite made
// durable by its own barrier; the shadow copy comes from and goes back to
// the page arena, so it allocates nothing.
func BenchmarkDeviceWrite4KPersist(b *testing.B) {
	d := New(SSDProfile("ssd0"), simclock.New())
	page := bytes.Repeat([]byte{0x5A}, pageSize)
	const pages = 256
	for pg := int64(0); pg < pages; pg++ {
		d.WriteAt(page, pg*pageSize)
	}
	d.PersistAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%pages) * pageSize
		if _, err := d.WriteAt(page, off); err != nil {
			b.Fatal(err)
		}
		if err := d.Persist(off, pageSize); err != nil {
			b.Fatal(err)
		}
	}
}
