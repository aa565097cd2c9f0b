package device

import (
	"bytes"
	"errors"
	"testing"
)

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
	// Fill the free list: shadows of pages 0-3 come back on PersistAll.
	for pg := int64(0); pg < 4; pg++ {
		d.WriteAt(fill(0xFF), pg*pageSize)
	}
	d.PersistAll()
	for pg := int64(0); pg < 4; pg++ {
		d.WriteAt(fill(0xEE), pg*pageSize)
	}
	d.PersistAll()
	if len(d.spare) == 0 {
		t.Fatal("PersistAll recycled no shadow copies")
	}

	// A partial write to a new page lands in a recycled buffer.
	d.WriteAt([]byte("hello"), 10*pageSize+100)
	want := make([]byte, pageSize)
	copy(want[100:], "hello")
	if !bytes.Equal(read(10), want) {
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
