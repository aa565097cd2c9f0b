package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapAllocFree(t *testing.T) {
	b := NewBitmap(128)
	if b.Free() != 128 || b.Used() != 0 || b.Blocks() != 128 {
		t.Fatalf("fresh bitmap: free=%d used=%d", b.Free(), b.Used())
	}
	blk, err := b.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if b.Free() != 127 || b.Used() != 1 {
		t.Fatalf("after alloc: free=%d", b.Free())
	}
	b.FreeBlock(blk)
	if b.Free() != 128 {
		t.Fatalf("after free: free=%d", b.Free())
	}
}

func TestBitmapExhaustion(t *testing.T) {
	b := NewBitmap(4)
	for i := 0; i < 4; i++ {
		if _, err := b.Alloc(); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := b.Alloc(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted alloc err = %v", err)
	}
	if _, err := b.AllocN(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted AllocN err = %v", err)
	}
}

func TestBitmapAllocUnique(t *testing.T) {
	b := NewBitmap(1000)
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		blk, err := b.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[blk] {
			t.Fatalf("block %d allocated twice", blk)
		}
		seen[blk] = true
	}
}

func TestBitmapSequentialAllocIsContiguous(t *testing.T) {
	b := NewBitmap(256)
	prev, _ := b.Alloc()
	for i := 0; i < 50; i++ {
		blk, _ := b.Alloc()
		if blk != prev+1 {
			t.Fatalf("next-fit broke contiguity: %d after %d", blk, prev)
		}
		prev = blk
	}
}

func TestBitmapAllocContig(t *testing.T) {
	b := NewBitmap(64)
	start, err := b.AllocContig(16)
	if err != nil {
		t.Fatal(err)
	}
	if b.Used() != 16 {
		t.Fatalf("used = %d", b.Used())
	}
	b.FreeRange(start, 16)
	if b.Free() != 64 {
		t.Fatalf("free = %d", b.Free())
	}
	// Fragment the space: allocate all, free every other block.
	for i := int64(0); i < 64; i++ {
		b.MarkUsed(i)
	}
	for i := int64(0); i < 64; i += 2 {
		b.FreeBlock(i)
	}
	if _, err := b.AllocContig(2); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("contig alloc in fully fragmented space: err = %v", err)
	}
	// Single blocks still work.
	if _, err := b.Alloc(); err != nil {
		t.Fatalf("single alloc in fragmented space failed: %v", err)
	}
}

func TestBitmapAllocNScattered(t *testing.T) {
	b := NewBitmap(64)
	for i := int64(0); i < 64; i++ {
		b.MarkUsed(i)
	}
	for i := int64(0); i < 64; i += 2 {
		b.FreeBlock(i)
	}
	blks, err := b.AllocN(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(blks) != 10 {
		t.Fatalf("got %d blocks", len(blks))
	}
	seen := map[int64]bool{}
	for _, blk := range blks {
		if blk%2 != 0 {
			t.Fatalf("allocated used block %d", blk)
		}
		if seen[blk] {
			t.Fatalf("duplicate block %d", blk)
		}
		seen[blk] = true
	}
}

func TestBitmapAllocNRollsBackOnFailure(t *testing.T) {
	b := NewBitmap(8)
	b.MarkUsed(0)
	// 7 free; ask for 7 then for 2 more.
	if _, err := b.AllocN(7); err != nil {
		t.Fatal(err)
	}
	free := b.Free()
	if _, err := b.AllocN(2); !errors.Is(err, ErrNoSpace) {
		t.Fatal("over-allocation succeeded")
	}
	if b.Free() != free {
		t.Fatalf("failed AllocN leaked blocks: free %d -> %d", free, b.Free())
	}
}

func TestBitmapDoubleFreePanics(t *testing.T) {
	b := NewBitmap(8)
	blk, _ := b.Alloc()
	b.FreeBlock(blk)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.FreeBlock(blk)
}

func TestBitmapMarkUsedIdempotent(t *testing.T) {
	b := NewBitmap(8)
	b.MarkUsed(3)
	b.MarkUsed(3)
	if b.Used() != 1 {
		t.Fatalf("used = %d", b.Used())
	}
	b.MarkUsed(-1) // out of range: no-op
	b.MarkUsed(99)
	if b.Used() != 1 {
		t.Fatalf("out-of-range MarkUsed changed state")
	}
}

func TestBitmapRandomizedConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBitmap(512)
	live := map[int64]bool{}
	for op := 0; op < 5000; op++ {
		if rng.Intn(2) == 0 && int64(len(live)) < b.Blocks() {
			blk, err := b.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if live[blk] {
				t.Fatalf("op %d: block %d double-allocated", op, blk)
			}
			live[blk] = true
		} else if len(live) > 0 {
			for blk := range live {
				b.FreeBlock(blk)
				delete(live, blk)
				break
			}
		}
		if b.Used() != int64(len(live)) {
			t.Fatalf("op %d: used=%d model=%d", op, b.Used(), len(live))
		}
	}
}

func TestExtentAllocBasic(t *testing.T) {
	e := NewExtentAlloc(1000)
	off, got, err := e.Alloc(100)
	if err != nil || off != 0 || got != 100 {
		t.Fatalf("Alloc = %d,%d,%v", off, got, err)
	}
	if e.FreeBytes() != 900 {
		t.Fatalf("FreeBytes = %d", e.FreeBytes())
	}
	e.Free(off, got)
	if e.FreeBytes() != 1000 || e.FragmentCount() != 1 {
		t.Fatalf("after free: %d bytes in %d runs", e.FreeBytes(), e.FragmentCount())
	}
}

func TestExtentAllocShortGrant(t *testing.T) {
	e := NewExtentAlloc(100)
	e.Reserve(40, 20) // free: [0,40) and [60,100)
	off, got, err := e.Alloc(50)
	if err != nil {
		t.Fatal(err)
	}
	// No run holds 50; the largest (40) is granted.
	if got != 40 {
		t.Fatalf("short grant = %d bytes at %d", got, off)
	}
}

func TestExtentAllocFirstFit(t *testing.T) {
	e := NewExtentAlloc(100)
	e.Reserve(10, 10) // free: [0,10) [20,100)
	off, got, err := e.Alloc(5)
	if err != nil || off != 0 || got != 5 {
		t.Fatalf("first fit = %d,%d,%v; want 0,5", off, got, err)
	}
}

// Reserving inside a free run that is not the last one splits it in two;
// the runs after it must survive (recovery's MarkUsed replays extents in
// arbitrary order, so this is the common case).
func TestExtentAllocReserveSplitsMiddleRun(t *testing.T) {
	e := NewExtentAlloc(100)
	e.Reserve(10, 10)
	e.Reserve(50, 10) // free: [0,10) [20,50) [60,100)
	e.Reserve(30, 5)  // free: [0,10) [20,30) [35,50) [60,100)
	if e.FreeBytes() != 75 || e.FragmentCount() != 4 {
		t.Fatalf("after a middle split: %d bytes free in %d runs, want 75 in 4", e.FreeBytes(), e.FragmentCount())
	}
	if off, got, err := e.Alloc(40); err != nil || off != 60 || got != 40 {
		t.Fatalf("Alloc(40) = %d,%d,%v; want the tail run 60,40", off, got, err)
	}
}

func TestExtentAllocCoalesce(t *testing.T) {
	e := NewExtentAlloc(100)
	e.Reserve(0, 100)
	e.Free(0, 30)
	e.Free(60, 40)
	if e.FragmentCount() != 2 {
		t.Fatalf("fragments = %d", e.FragmentCount())
	}
	e.Free(30, 30) // bridges both
	if e.FragmentCount() != 1 || e.FreeBytes() != 100 {
		t.Fatalf("coalesce failed: %d runs, %d bytes", e.FragmentCount(), e.FreeBytes())
	}
}

func TestExtentAllocExhaustion(t *testing.T) {
	e := NewExtentAlloc(10)
	e.Alloc(10)
	if _, _, err := e.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
}

func TestExtentAllocDoubleFreePanics(t *testing.T) {
	e := NewExtentAlloc(100)
	off, got, _ := e.Alloc(10)
	e.Free(off, got)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	e.Free(off, got)
}

func TestExtentAllocConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewExtentAlloc(4096)
		type piece struct{ off, n int64 }
		var held []piece
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 {
				n := int64(rng.Intn(200) + 1)
				off, got, err := e.Alloc(n)
				if err != nil {
					continue
				}
				held = append(held, piece{off, got})
			} else if len(held) > 0 {
				i := rng.Intn(len(held))
				e.Free(held[i].off, held[i].n)
				held = append(held[:i], held[i+1:]...)
			}
			var heldBytes int64
			for _, p := range held {
				heldBytes += p.n
			}
			if e.FreeBytes()+heldBytes != 4096 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
