package device

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"muxfs/internal/race"
)

// drainPagePool empties pagePool, so what a test reads back from it next
// is what the test itself put there. Get alone cannot do it: it never
// reaches another P's private slot. Two collections clear every P's
// primary and victim caches.
func drainPagePool() {
	runtime.GC()
	runtime.GC()
}

// Steady-state writeback to a resident page — overwrite, then a full
// barrier — recycles the shadow copy instead of allocating one per cycle.
func TestOverwritePersistAllAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
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
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
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
	// Fill the pool: shadows of pages 0-15 come back on PersistAll. Sixteen
	// pages keep the check sound under -race, which drops a quarter of
	// sync.Pool puts at random.
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
		shadows[(*[pageSize]byte)(dup)] = true
	}
	drainPagePool()
	d.PersistAll()
	p, _ := pagePool.Get().(*[pageSize]byte)
	if !shadows[p] {
		t.Fatal("PersistAll recycled no shadow copies")
	}
	for i := range p {
		p[i] = 0xA5 // stale contents a new page must not show
	}
	pagePool.Put(p)

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

// The page pool is shared by every device: the shadows one device's barrier
// frees feed another device's writes to new pages, with nothing allocated.
func TestBarrierFreesFeedOtherDevice(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const (
		perCycle = 4
		cycles   = 101 // AllocsPerRun's warm-up run plus 100
		span     = perCycle * cycles
	)
	page := bytes.Repeat([]byte{0x5A}, pageSize)
	src, _ := newTestDev(t, SSDProfile("src"))
	dst, _ := newTestDev(t, SSDProfile("dst"))
	// Both devices touch every page number up front, so their maps have
	// room for the whole run; then the pool is emptied, so dst can only
	// draw what src frees.
	for _, d := range []*Device{src, dst} {
		for pg := int64(0); pg < span; pg++ {
			d.WriteAt(page, pg*pageSize)
		}
		d.PersistAll()
	}
	dst.Discard(0, span*pageSize)
	dst.PersistAll()
	drainPagePool()

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
	got := make([]byte, pageSize)
	for pg := int64(0); pg < span; pg++ {
		dst.ReadAt(got, pg*pageSize)
		if !bytes.Equal(got, page) {
			t.Fatalf("dst page %d: wrong contents after the run", pg)
		}
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
