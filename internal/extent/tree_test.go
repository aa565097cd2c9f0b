package extent

import (
	"fmt"
	"math/rand"
	"testing"
)

func segs(t *Tree[int], off, n int64) []Segment[int] { return t.Segments(off, n) }

func TestEmptyTree(t *testing.T) {
	var tr Tree[int]
	if tr.Len() != 0 || tr.MappedBytes() != 0 {
		t.Fatal("empty tree not empty")
	}
	if _, _, ok := tr.Lookup(0); ok {
		t.Fatal("lookup hit in empty tree")
	}
	got := segs(&tr, 0, 100)
	if len(got) != 1 || !got[0].Hole || got[0].Len != 100 {
		t.Fatalf("segments of empty tree = %+v", got)
	}
	lo, hi := tr.Bounds()
	if lo != 0 || hi != 0 {
		t.Fatalf("Bounds = %d,%d", lo, hi)
	}
}

func TestInsertLookup(t *testing.T) {
	var tr Tree[int]
	tr.Insert(100, 50, 1)
	v, seg, ok := tr.Lookup(120)
	if !ok || v != 1 || seg.Off != 100 || seg.Len != 50 {
		t.Fatalf("Lookup = %v %+v %v", v, seg, ok)
	}
	if _, _, ok := tr.Lookup(99); ok {
		t.Fatal("lookup before extent hit")
	}
	if _, _, ok := tr.Lookup(150); ok {
		t.Fatal("lookup at end (exclusive) hit")
	}
}

func TestInsertCoalesces(t *testing.T) {
	var tr Tree[int]
	tr.Insert(0, 10, 7)
	tr.Insert(10, 10, 7)
	if tr.Len() != 1 {
		t.Fatalf("adjacent equal values did not coalesce: %d runs", tr.Len())
	}
	tr.Insert(20, 10, 8)
	if tr.Len() != 2 {
		t.Fatalf("different values coalesced: %d runs", tr.Len())
	}
	if tr.MappedBytes() != 30 {
		t.Fatalf("MappedBytes = %d", tr.MappedBytes())
	}
}

func TestInsertSplitsMiddle(t *testing.T) {
	var tr Tree[int]
	tr.Insert(0, 100, 1)
	tr.Insert(40, 20, 2)
	want := []Segment[int]{
		{Off: 0, Len: 40, Val: 1},
		{Off: 40, Len: 20, Val: 2},
		{Off: 60, Len: 40, Val: 1},
	}
	got := segs(&tr, 0, 100)
	if len(got) != len(want) {
		t.Fatalf("segments = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestInsertOverwritesCovered(t *testing.T) {
	var tr Tree[int]
	tr.Insert(10, 10, 1)
	tr.Insert(30, 10, 2)
	tr.Insert(0, 100, 3) // covers everything
	if tr.Len() != 1 {
		t.Fatalf("full overwrite left %d runs", tr.Len())
	}
	v, _, _ := tr.Lookup(15)
	if v != 3 {
		t.Fatalf("covered value survived: %d", v)
	}
}

func TestInsertStraddleBoth(t *testing.T) {
	var tr Tree[int]
	tr.Insert(0, 30, 1)
	tr.Insert(50, 30, 2)
	tr.Insert(20, 40, 9) // clips tail of first, head of second
	want := []Segment[int]{
		{Off: 0, Len: 20, Val: 1},
		{Off: 20, Len: 40, Val: 9},
		{Off: 60, Len: 20, Val: 2},
	}
	got := segs(&tr, 0, 80)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDelete(t *testing.T) {
	var tr Tree[int]
	tr.Insert(0, 100, 1)
	tr.Delete(40, 20)
	got := segs(&tr, 0, 100)
	want := []Segment[int]{
		{Off: 0, Len: 40, Val: 1},
		{Off: 40, Len: 20, Hole: true},
		{Off: 60, Len: 40, Val: 1},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if tr.MappedBytes() != 80 {
		t.Fatalf("MappedBytes after delete = %d", tr.MappedBytes())
	}
	tr.Delete(0, 1000)
	if tr.Len() != 0 {
		t.Fatal("full delete left runs")
	}
}

func TestSegmentsPartialRange(t *testing.T) {
	var tr Tree[int]
	tr.Insert(100, 100, 5)
	got := segs(&tr, 150, 100)
	want := []Segment[int]{
		{Off: 150, Len: 50, Val: 5},
		{Off: 200, Len: 50, Hole: true},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Segments must exactly tile the request.
	var total int64
	for _, s := range got {
		total += s.Len
	}
	if total != 100 {
		t.Fatalf("segments tile %d bytes, want 100", total)
	}
}

func TestZeroLengthOps(t *testing.T) {
	var tr Tree[int]
	tr.Insert(0, 0, 1)
	tr.Insert(5, -3, 1)
	tr.Delete(0, 0)
	if tr.Len() != 0 {
		t.Fatal("zero-length ops mutated tree")
	}
	if got := tr.Segments(10, 0); got != nil {
		t.Fatalf("zero-length segments = %+v", got)
	}
}

func TestWalkAndClone(t *testing.T) {
	var tr Tree[int]
	tr.Insert(0, 10, 1)
	tr.Insert(20, 10, 2)
	var visited int
	tr.Walk(func(off, n int64, v int) bool { visited++; return true })
	if visited != 2 {
		t.Fatalf("walk visited %d", visited)
	}
	visited = 0
	tr.Walk(func(off, n int64, v int) bool { visited++; return false })
	if visited != 1 {
		t.Fatalf("early-stop walk visited %d", visited)
	}

	c := tr.Clone()
	c.Insert(0, 100, 9)
	if v, _, _ := tr.Lookup(5); v != 1 {
		t.Fatal("clone mutation leaked into original")
	}
	tr.Clear()
	if tr.Len() != 0 {
		t.Fatal("Clear left runs")
	}
	if c.Len() == 0 {
		t.Fatal("Clear on original affected clone")
	}
}

func TestBounds(t *testing.T) {
	var tr Tree[int]
	tr.Insert(50, 10, 1)
	tr.Insert(200, 10, 2)
	lo, hi := tr.Bounds()
	if lo != 50 || hi != 210 {
		t.Fatalf("Bounds = %d,%d", lo, hi)
	}
}

// TestAgainstNaiveModel cross-checks random Insert/Delete sequences against a
// per-byte reference model.
func TestAgainstNaiveModel(t *testing.T) {
	const space = 512
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var tr Tree[int]
		model := make([]int, space) // 0 = hole
		for op := 0; op < 30; op++ {
			off := int64(rng.Intn(space))
			n := int64(rng.Intn(space/4) + 1)
			if off+n > space {
				n = space - off
			}
			if rng.Intn(4) == 0 {
				tr.Delete(off, n)
				for i := off; i < off+n; i++ {
					model[i] = 0
				}
			} else {
				v := rng.Intn(3) + 1
				tr.Insert(off, n, v)
				for i := off; i < off+n; i++ {
					model[i] = v
				}
			}
		}
		// Compare every byte via Segments over the whole space.
		pos := int64(0)
		for _, s := range tr.Segments(0, space) {
			if s.Off != pos {
				t.Fatalf("trial %d: segment gap at %d (segment %+v)", trial, pos, s)
			}
			for i := s.Off; i < s.End(); i++ {
				want := model[i]
				if s.Hole && want != 0 {
					t.Fatalf("trial %d: byte %d hole, model has %d", trial, i, want)
				}
				if !s.Hole && s.Val != want {
					t.Fatalf("trial %d: byte %d = %d, model has %d", trial, i, s.Val, want)
				}
			}
			pos = s.End()
		}
		if pos != space {
			t.Fatalf("trial %d: segments tile %d bytes", trial, pos)
		}
		// Invariant: runs are sorted, non-overlapping, non-empty, coalesced.
		var prevEnd int64 = -1
		var prevVal int
		first := true
		tr.Walk(func(off, n int64, v int) bool {
			if n <= 0 {
				t.Fatalf("trial %d: empty run", trial)
			}
			if !first && off < prevEnd {
				t.Fatalf("trial %d: overlapping runs", trial)
			}
			if !first && off == prevEnd && v == prevVal {
				t.Fatalf("trial %d: uncoalesced neighbors", trial)
			}
			prevEnd, prevVal, first = off+n, v, false
			return true
		})
	}
}

// AppendSegments extends dst with exactly the segments Segments returns,
// leaves dst's existing elements alone, and walks into a reused slice
// without allocating.
func TestAppendSegments(t *testing.T) {
	var tr Tree[int]
	tr.Insert(0, 100, 1)
	tr.Insert(150, 50, 2)
	tr.Insert(300, 100, 3)
	head := Segment[int]{Off: -1, Len: 1, Val: 9}
	got := tr.AppendSegments([]Segment[int]{head}, 50, 300)
	want := tr.Segments(50, 300)
	if len(got) != len(want)+1 || got[0] != head {
		t.Fatalf("AppendSegments = %+v, want %+v after %+v", got, want, head)
	}
	for i, s := range want {
		if got[i+1] != s {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i+1], s)
		}
	}
	if got := tr.AppendSegments(nil, 10, 0); got != nil {
		t.Fatalf("zero-length walk appended %+v", got)
	}
	scratch := make([]Segment[int], 0, 8)
	if a := testing.AllocsPerRun(100, func() { scratch = tr.AppendSegments(scratch[:0], 0, 400) }); a != 0 {
		t.Fatalf("walk into a reused slice: %.1f allocations, want 0", a)
	}
}

// BenchmarkAppendSegments walks a 4 KiB range of a 1024-run tree into a
// reused slice, as the file systems' read and write paths do.
func BenchmarkAppendSegments(b *testing.B) {
	var tr Tree[int64]
	for i := int64(0); i < 1024; i++ {
		tr.Insert(i*8192, 4096, i) // mapped runs with holes between
	}
	var scratch []Segment[int64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * 8192
		scratch = tr.AppendSegments(scratch[:0], off+2048, 4096)
	}
}

// Updates splice into the entry slice in place: a clone taken before them
// keeps its runs, and once the slice has room an update allocates nothing.
func TestInPlaceUpdates(t *testing.T) {
	var tr Tree[int]
	fillRuns(&tr, 64)
	c := tr.Clone()
	tr.Insert(8192+1024, 2048, -1) // splits run 1 into three
	tr.Delete(3*8192, 4096)        // removes run 3
	tr.Insert(0, 64*8192, 7)       // replaces everything
	if c.Len() != 64 {
		t.Fatalf("clone has %d runs after updates to the original, want 64", c.Len())
	}
	for i := int64(0); i < 64; i++ {
		if v, seg, ok := c.Lookup(i*8192 + 100); !ok || v != int(i) || seg.Off != i*8192 || seg.Len != 4096 {
			t.Fatalf("clone run %d = %v %+v %v", i, v, seg, ok)
		}
	}
	tr.Clear()
	fillRuns(&tr, 64)
	k := 0
	if a := testing.AllocsPerRun(200, func() {
		off := int64(k%64) * 8192
		tr.Insert(off+1024, 2048, -1) // one run becomes three
		tr.Delete(off+1024, 2048)     // and two
		tr.Insert(off+1024, 2048, k%64)
		k++
	}); a != 0 {
		t.Fatalf("in-place updates: %.1f allocations per round, want 0", a)
	}
	if tr.Len() != 64 {
		t.Fatalf("%d runs after balanced updates, want 64", tr.Len())
	}
}

// fillRuns resets tr to n 4 KiB runs with 4 KiB holes between them, run i
// at i×8 KiB with value i.
func fillRuns(tr *Tree[int], n int) {
	tr.Clear()
	for i := 0; i < n; i++ {
		tr.Insert(int64(i)*8192, 4096, i)
	}
}

var benchSizes = []int{16, 1024, 65536}

// BenchmarkInsert fills a hole between two runs with a run of a third
// value, so the tree gains an entry and the entries after it shift. Every
// n inserts the tree goes back to n runs, so it holds n to 2n runs.
func BenchmarkInsert(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var tr Tree[int]
			fillRuns(&tr, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				if k == 0 && i > 0 {
					fillRuns(&tr, n)
				}
				tr.Insert(int64(k)*8192+4096, 4096, -1)
			}
		})
	}
}

// BenchmarkDelete unmaps one run, so the entries after it shift. Every n
// deletes the tree goes back to 2n runs, so it holds n to 2n runs.
func BenchmarkDelete(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var tr Tree[int]
			fillRuns(&tr, 2*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				if k == 0 && i > 0 {
					fillRuns(&tr, 2*n)
				}
				tr.Delete(int64(k)*8192, 4096)
			}
		})
	}
}
