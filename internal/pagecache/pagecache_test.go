package pagecache

import (
	"bytes"
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"muxfs/internal/bufpool"
	"muxfs/internal/simclock"
)

func newTestCache(capacity int) (*Cache, *simclock.Clock) {
	clk := simclock.New()
	return New(capacity, clk, 100*time.Nanosecond), clk
}

func resident(c *Cache, k Key) bool {
	_, ok := c.Peek(k)
	return ok
}

func dirtyKeys(c *Cache) []Key { return c.AppendDirtyPages(nil, 0, true) }

// A hit charges the DRAM cost whether the page is clean or dirty, and
// returns bytes only for a dirty page: a clean one has none to return.
func TestGetMissThenHit(t *testing.T) {
	c, clk := newTestCache(4)
	clean, dirty := Key{File: 1, Page: 0}, Key{File: 1, Page: 1}
	if _, ok := c.Get(clean); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(clean, []byte("on the device"), false)
	c.Put(dirty, []byte("hello"), true)
	before := clk.Now()
	data, ok := c.Get(clean)
	if !ok || data != nil {
		t.Fatalf("clean hit = %v, %d bytes; want a hit with no bytes", ok, len(data))
	}
	data, ok = c.Get(dirty)
	if !ok || !bytes.Equal(data[:5], []byte("hello")) {
		t.Fatalf("dirty hit = %v, %q", ok, data)
	}
	if clk.Now()-before != 200*time.Nanosecond {
		t.Fatalf("two hits charged %v, want 200ns", clk.Now()-before)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Pages != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutZeroExtendsShortPage(t *testing.T) {
	c, _ := newTestCache(4)
	k := Key{File: 1, Page: 0}
	c.Put(k, []byte("abc"), true)
	data, _ := c.Get(k)
	if len(data) != PageSize {
		t.Fatalf("page len = %d", len(data))
	}
	if data[3] != 0 || data[PageSize-1] != 0 {
		t.Fatal("short page not zero-extended")
	}
	// Replacing with shorter data must clear the tail, also in a recycled
	// buffer.
	c.Put(k, bytes.Repeat([]byte{0xEE}, PageSize), true)
	c.MarkClean(k)
	c.Put(k, []byte("xy"), true)
	data, _ = c.Get(k)
	if data[0] != 'x' || data[2] != 0 || data[100] != 0 {
		t.Fatal("replacement did not clear stale bytes")
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := newTestCache(2)
	k1, k2, k3 := Key{1, 0}, Key{1, 1}, Key{1, 2}
	c.Put(k1, nil, false)
	c.Put(k2, nil, false)
	c.Get(k1) // k1 now more recent than k2
	if _, mustWrite := c.Put(k3, nil, false); mustWrite {
		t.Fatal("a clean victim needs no write-back")
	}
	if !resident(c, k1) || resident(c, k2) || !resident(c, k3) {
		t.Fatal("wrong residency after eviction")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

// A dirty victim stays resident, bytes and all, until its owner has
// written it back and calls Evict.
func TestEvictionReturnsDirtyData(t *testing.T) {
	c, _ := newTestCache(1)
	k1, k2 := Key{1, 0}, Key{1, 1}
	c.Put(k1, []byte("dirty!"), true)
	ev, mustWrite := c.Put(k2, nil, false)
	if !mustWrite || ev.Key != k1 {
		t.Fatalf("dirty eviction lost: %v %+v", mustWrite, ev.Key)
	}
	if !bytes.Equal(ev.Data[:6], []byte("dirty!")) {
		t.Fatalf("evicted data = %q", ev.Data[:6])
	}
	if !resident(c, k1) || c.Stats().Evictions != 0 {
		t.Fatal("dirty victim left before its write-back")
	}
	c.Evict(k1)
	if resident(c, k1) || !resident(c, k2) || c.Stats().Evictions != 1 || c.Stats().Pages != 1 {
		t.Fatalf("after Evict: stats %+v", c.Stats())
	}
}

// When the owner's write-back of a dirty victim fails it does not call
// Evict: the page stays dirty, and the next Put offers it again.
func TestFailedWriteBackKeepsDirty(t *testing.T) {
	c, _ := newTestCache(1)
	k1, k2, k3 := Key{1, 0}, Key{1, 1}, Key{1, 2}
	c.Put(k1, []byte("a"), true)
	if ev, _ := c.Put(k2, nil, false); ev.Key != k1 {
		t.Fatalf("victim = %+v", ev.Key)
	}
	if got := dirtyKeys(c); len(got) != 1 || got[0] != k1 {
		t.Fatalf("dirty pages after a failed write-back = %v", got)
	}
	ev, mustWrite := c.Put(k3, nil, false)
	if !mustWrite || ev.Key != k1 || ev.Data[0] != 'a' {
		t.Fatalf("retry victim = %v %+v", mustWrite, ev.Key)
	}
	c.Evict(k1)
	// The clean page the failed eviction left over capacity goes too.
	if _, mustWrite := c.Put(Key{1, 3}, nil, false); mustWrite || c.Stats().Pages != 1 {
		t.Fatalf("cache did not shrink back to capacity: %+v", c.Stats())
	}
}

func TestPutReplaceKeepsDirty(t *testing.T) {
	c, _ := newTestCache(4)
	k := Key{1, 0}
	c.Put(k, []byte("a"), true)
	c.Put(k, []byte("b"), false) // replace with clean data must keep dirty
	if data, _ := c.Peek(k); len(dirtyKeys(c)) != 1 || data[0] != 'b' {
		t.Fatal("dirty bit or new data lost on replace")
	}
}

// MarkDirty gives a clean page a buffer; MarkClean takes it away.
func TestMarkDirtyAndClean(t *testing.T) {
	c, _ := newTestCache(8)
	c.Put(Key{1, 0}, nil, false)
	c.Put(Key{1, 1}, nil, false)
	c.Put(Key{2, 0}, nil, false)
	c.MarkDirty(Key{1, 0}, []byte("a"))
	c.MarkDirty(Key{2, 0}, []byte("c"))
	c.MarkDirty(Key{9, 9}, []byte("x")) // not resident: no-op

	if got := c.AppendDirtyPages(nil, 1, false); len(got) != 1 || got[0] != (Key{1, 0}) {
		t.Fatalf("dirty pages of file 1 = %v", got)
	}
	if data, _ := c.Peek(Key{1, 0}); data[0] != 'a' {
		t.Fatalf("MarkDirty stored %q", data[:1])
	}
	if resident(c, Key{9, 9}) {
		t.Fatal("MarkDirty inserted a page")
	}
	c.MarkClean(Key{1, 0})
	if data, ok := c.Peek(Key{1, 0}); !ok || data != nil {
		t.Fatal("a page marked clean must stay resident without bytes")
	}
	if got := dirtyKeys(c); len(got) != 1 || got[0] != (Key{2, 0}) {
		t.Fatalf("dirty pages = %v", got)
	}
}

func TestAppendDirtyPagesAll(t *testing.T) {
	c, _ := newTestCache(8)
	c.Put(Key{3, 1}, []byte("a"), true)
	c.Put(Key{2, 0}, []byte("b"), true)
	c.Put(Key{3, 0}, []byte("c"), true)
	c.Put(Key{1, 0}, nil, false)
	got := c.AppendDirtyPages([]Key{{9, 9}}, 0, true)
	want := []Key{{9, 9}, {2, 0}, {3, 0}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("dirty pages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dirty pages = %v, want %v (sorted, after dst)", got, want)
		}
	}
}

func TestInvalidateFile(t *testing.T) {
	c, _ := newTestCache(8)
	c.Put(Key{1, 0}, []byte("a"), true)
	c.Put(Key{2, 0}, nil, false)
	c.InvalidateFile(1)
	if resident(c, Key{1, 0}) || len(dirtyKeys(c)) != 0 {
		t.Fatal("file 1 survived invalidation")
	}
	if !resident(c, Key{2, 0}) {
		t.Fatal("file 2 wrongly invalidated")
	}
}

func TestInvalidateRange(t *testing.T) {
	c, _ := newTestCache(16)
	for pg := int64(0); pg < 8; pg++ {
		c.Put(Key{1, pg}, []byte{byte(pg)}, pg%2 == 0)
	}
	// Invalidate bytes [PageSize+1, 3*PageSize): pages 1 and 2.
	c.InvalidateRange(1, PageSize+1, 2*PageSize-1)
	for pg := int64(0); pg < 8; pg++ {
		want := pg != 1 && pg != 2
		if got := resident(c, Key{1, pg}); got != want {
			t.Fatalf("page %d residency = %v, want %v", pg, got, want)
		}
	}
	c.InvalidateRange(1, 0, 0) // no-op
}

func TestInvalidateAll(t *testing.T) {
	c, _ := newTestCache(8)
	c.Put(Key{1, 0}, []byte("a"), true)
	c.Put(Key{1, 1}, nil, false)
	c.InvalidateAll()
	if c.Stats().Pages != 0 || len(dirtyKeys(c)) != 0 {
		t.Fatal("InvalidateAll left pages")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := newTestCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var keys []Key
			for i := 0; i < 200; i++ {
				k := Key{File: uint64(w), Page: int64(i % 16)}
				if ev, mustWrite := c.Put(k, []byte{byte(i)}, i%2 == 0); mustWrite {
					c.Evict(ev.Key)
				}
				c.Get(k)
				if i%10 == 0 {
					keys = c.AppendDirtyPages(keys[:0], uint64(w), false)
					for _, k := range keys {
						c.MarkClean(k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Stats().Pages > 64+8 { // each worker may leave one victim pending
		t.Fatalf("cache over capacity: %d", c.Stats().Pages)
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New(0, simclock.New(), 0)
	c.Put(Key{1, 0}, nil, false)
	if !resident(c, Key{1, 0}) {
		t.Fatal("capacity floor of 1 page not applied")
	}
}

// pagesInUse is how many page-arena pages are held, by any holder.
func pagesInUse() int {
	mapped, free := bufpool.PageStats()
	return mapped - free
}

// Every way a dirty page stops being dirty gives its buffer back to the
// page arena: write-back (MarkClean), eviction, invalidation by range, by
// file and of the whole cache.
func TestCleanPagesReturnBuffers(t *testing.T) {
	c, _ := newTestCache(64)
	before := pagesInUse()
	for f := uint64(1); f <= 4; f++ {
		for pg := int64(0); pg < 8; pg++ {
			c.Put(Key{f, pg}, []byte("dirty"), true)
		}
	}
	if got := pagesInUse() - before; got < 32 {
		t.Fatalf("32 dirty pages hold %d arena pages", got)
	}
	c.MarkClean(Key{1, 0})
	c.Evict(Key{1, 1})
	c.InvalidateRange(2, 0, 8*PageSize)
	c.InvalidateFile(3)
	if got := pagesInUse() - before; got > 32-1-1-8-8 {
		t.Fatalf("after MarkClean, Evict and invalidation 14 dirty pages hold %d arena pages", got)
	}
	c.InvalidateAll()
	if after := pagesInUse(); after > before {
		t.Fatalf("an empty cache holds %d arena pages", after-before)
	}
	runtime.KeepAlive(c)
}

// A cache nothing references gives its dirty pages back: 64 caches, each
// with 8 MiB of dirty pages, dropped one after another never make the
// arena map more than two caches' worth.
func TestDroppedCachesReturnPages(t *testing.T) {
	if !bufpool.PagesOffHeap {
		t.Skip("pages on the Go heap: the GC frees a dropped cache's pages with it")
	}
	const pages = 8 << 20 / PageSize
	runtime.GC()
	base := pagesInUse()
	mapped0, _ := bufpool.PageStats()
	data := bytes.Repeat([]byte{0x3C}, PageSize)
	for i := 0; i < 64; i++ {
		c, _ := newTestCache(pages)
		for pg := int64(0); pg < pages; pg++ {
			c.Put(Key{1, pg}, data, true)
		}
		runtime.GC()
		for deadline := time.Now().Add(time.Second); pagesInUse() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cache %d: %d arena pages still in use 1 s after it was dropped, want <= %d", i, pagesInUse(), base)
			}
		}
		if m, _ := bufpool.PageStats(); m-mapped0 > 2*pages {
			t.Fatalf("after %d dropped caches the arena mapped %d more pages, want <= %d", i+1, m-mapped0, 2*pages)
		}
	}
}

// The dirty set follows every way a page turns dirty or clean — Put,
// MarkDirty, MarkClean, Evict, the invalidations — so write-back lists
// exactly the pages that hold bytes, in (file, page) order.
func TestDirtySetTracksPages(t *testing.T) {
	c, _ := newTestCache(64)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		k := Key{File: uint64(rng.Intn(4)), Page: int64(rng.Intn(40))}
		switch rng.Intn(8) {
		case 0, 1:
			if ev, must := c.Put(k, []byte{byte(step)}, true); must {
				c.Evict(ev.Key)
			}
		case 2, 3:
			if ev, must := c.Put(k, nil, false); must {
				c.Evict(ev.Key)
			}
		case 4:
			c.MarkDirty(k, []byte{1})
		case 5:
			c.MarkClean(k)
		case 6:
			c.InvalidateRange(k.File, k.Page*PageSize, PageSize*int64(1+rng.Intn(3)))
		case 7:
			if rng.Intn(50) == 0 {
				c.InvalidateFile(k.File)
			}
		}
		var want []Key
		c.mu.Lock()
		for k, el := range c.pages {
			if el.Value.(*page).buf != nil {
				want = append(want, k)
			}
		}
		c.mu.Unlock()
		slices.SortFunc(want, func(a, b Key) int {
			if a.File != b.File {
				return cmp.Compare(a.File, b.File)
			}
			return cmp.Compare(a.Page, b.Page)
		})
		if got := dirtyKeys(c); !slices.Equal(got, want) {
			t.Fatalf("step %d: dirty pages %v, want %v", step, got, want)
		}
		if got := c.AppendDirtyPages(nil, 2, false); len(got) != countFile(want, 2) {
			t.Fatalf("step %d: dirty pages of file 2 %v, want %d", step, got, countFile(want, 2))
		}
	}
	c.InvalidateAll()
	if got := dirtyKeys(c); len(got) != 0 {
		t.Fatalf("dirty pages after InvalidateAll: %v", got)
	}
}

func countFile(keys []Key, file uint64) int {
	n := 0
	for _, k := range keys {
		if k.File == file {
			n++
		}
	}
	return n
}

// Write-back's dirty walk with 1 dirty page among 32,768 cached ones (the
// 128 MiB default cache full of clean pages): it visits the dirty page
// alone.
func BenchmarkAppendDirtyPages(b *testing.B) {
	const pages = 32 << 10
	c, _ := newTestCache(pages)
	for i := 0; i < pages; i++ {
		c.Put(Key{File: uint64(i % 64), Page: int64(i / 64)}, nil, false)
	}
	c.MarkDirty(Key{File: 7, Page: 3}, []byte{1})
	var dst []Key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.AppendDirtyPages(dst[:0], 0, true)
	}
	if len(dst) != 1 {
		b.Fatalf("%d dirty pages, want 1", len(dst))
	}
}
