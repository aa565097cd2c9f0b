package bufpool

import (
	"runtime"
	"sync"
	"testing"
)

// A page put back is the next one out (the free list is LIFO), a page
// holds its bytes from GetPage to PutPage, and PageStats counts the pages
// in use.
func TestGetPutPage(t *testing.T) {
	mapped0, free0 := PageStats()
	p := GetPage()
	if m, _ := PageStats(); free0 == 0 && m != mapped0+chunkSize/PageSize {
		t.Fatalf("GetPage on an empty free list mapped %d pages, want one chunk of %d", m-mapped0, chunkSize/PageSize)
	}
	for i := range p {
		p[i] = 0x5A
	}
	q := GetPage()
	if q == p {
		t.Fatal("GetPage handed out a page that is in use")
	}
	mapped, free := PageStats()
	if got := (mapped - free) - (mapped0 - free0); got != 2 {
		t.Fatalf("pages in use grew by %d after two GetPage, want 2", got)
	}
	for i := range p {
		if p[i] != 0x5A {
			t.Fatalf("byte %d of a held page changed", i)
		}
	}
	PutPage(q)
	PutPage(p)
	PutPage(nil) // a no-op
	if r := GetPage(); r != p {
		t.Fatal("GetPage did not return the page put last")
	} else if r[0] != 0x5A {
		t.Fatal("a recycled page lost its stale contents") // contents are the last holder's
	} else {
		PutPage(r)
	}
	if m, f := PageStats(); m-f != mapped0-free0 {
		t.Fatalf("pages in use %d after every page came back, want %d", m-f, mapped0-free0)
	}
}

// The arena grows one chunk at a time, and a drained free list maps a new
// chunk rather than handing out a page twice.
func TestPageArenaGrowsByChunk(t *testing.T) {
	_, free := PageStats()
	held := make([]*[PageSize]byte, 0, free+1)
	for i := 0; i < free; i++ {
		held = append(held, GetPage())
	}
	mapped0, _ := PageStats()
	held = append(held, GetPage())
	mapped, free := PageStats()
	if mapped != mapped0+chunkSize/PageSize || free != chunkSize/PageSize-1 {
		t.Fatalf("GetPage on an empty free list: mapped %d -> %d, free %d; want one new chunk of %d pages",
			mapped0, mapped, free, chunkSize/PageSize)
	}
	seen := make(map[*[PageSize]byte]bool, len(held))
	for _, p := range held {
		if seen[p] {
			t.Fatal("a page was handed out twice")
		}
		seen[p] = true
	}
	for _, p := range held {
		PutPage(p)
	}
}

// Under parallel GetPage/fill/PutPage no two holders ever share a page:
// each holder's fill survives until it puts the page back.
func TestPageArenaConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
	)
	var mu sync.Mutex
	inUse := make(map[*[PageSize]byte]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mark := byte(w + 1)
			held := make([]*[PageSize]byte, 0, 4)
			for r := 0; r < rounds; r++ {
				for len(held) < 1+r%4 { // hold one to four pages at a time
					p := GetPage()
					mu.Lock()
					shared := inUse[p]
					inUse[p] = true
					mu.Unlock()
					if shared {
						t.Errorf("worker %d: GetPage returned a page another holder has", w)
						return
					}
					for i := range p {
						p[i] = mark
					}
					held = append(held, p)
				}
				runtime.Gosched() // let other holders run while this one holds its pages
				p := held[0]
				held = held[1:]
				for i := range p {
					if p[i] != mark {
						t.Errorf("worker %d: byte %d of its page changed under it", w, i)
						return
					}
				}
				mu.Lock()
				delete(inUse, p)
				mu.Unlock()
				PutPage(p)
			}
			for _, p := range held {
				mu.Lock()
				delete(inUse, p)
				mu.Unlock()
				PutPage(p)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkGetPutPage is the arena's round trip; it allocates nothing.
func BenchmarkGetPutPage(b *testing.B) {
	b.ReportAllocs()
	PutPage(GetPage()) // map the first chunk outside the timed loop
	for i := 0; i < b.N; i++ {
		PutPage(GetPage())
	}
}

// Where pages live on the Go heap, the free list keeps at most maxFree
// pages and leaves the rest to the GC, so free pages cannot hold the heap
// at a past peak.
func TestFreeListCap(t *testing.T) {
	if PagesOffHeap {
		t.Skip("mapped chunks are never unmapped: the arena keeps every free page")
	}
	_, free := PageStats()
	held := make([]*[PageSize]byte, 0, free+maxFree+8)
	for len(held) < free+maxFree+8 {
		held = append(held, GetPage())
	}
	mapped0, _ := PageStats()
	for _, p := range held {
		PutPage(p)
	}
	mapped, free := PageStats()
	if free != maxFree || mapped0-mapped != len(held)-maxFree {
		t.Fatalf("after %d puts: %d free, %d left to the GC; want %d free and %d left",
			len(held), free, mapped0-mapped, maxFree, len(held)-maxFree)
	}
}
