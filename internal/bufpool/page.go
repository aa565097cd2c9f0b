package bufpool

import (
	"runtime"
	"sync"
)

// PageSize is the size of an arena page.
const PageSize = 4096

// arena is the process's one allocator of 4 KiB pages: simulated device
// pages and dirty page-cache pages. Pages are carved from the chunks
// newChunk returns and sit on a LIFO free list. Where PagesOffHeap holds,
// chunks are mapped outside the Go heap, so page bytes do not count toward
// the GC's heap goal, and never unmapped: a stale reference reads garbage
// but never faults, and after a peak the process keeps the pages it
// mapped for the next holder.
var arena struct {
	mu     sync.Mutex
	free   []*[PageSize]byte // top = most recently freed
	mapped int               // pages carved and not left to the GC
}

// GetPage returns a page with stale contents: whatever its last holder
// left in it. The page belongs to the caller until PutPage.
func GetPage() *[PageSize]byte {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	if len(arena.free) == 0 {
		c := newChunk()
		// Push in descending address order so pages go out ascending.
		for off := chunkSize - PageSize; off >= 0; off -= PageSize {
			arena.free = append(arena.free, (*[PageSize]byte)(c[off:]))
		}
		arena.mapped += chunkSize / PageSize
	}
	n := len(arena.free) - 1
	p := arena.free[n]
	arena.free = arena.free[:n]
	return p
}

// PutPage returns a GetPage page to the arena; nil is a no-op. After
// PutPage nothing may touch the page.
func PutPage(p *[PageSize]byte) {
	if p == nil {
		return
	}
	arena.mu.Lock()
	if len(arena.free) < maxFree {
		arena.free = append(arena.free, p)
	} else {
		arena.mapped-- // a heap page past the cap: the GC takes it
	}
	arena.mu.Unlock()
}

// ReleaseOnDrop arranges for release(holder) to run once holder is
// unreachable, so a holder of arena pages nobody closes — a device, a page
// cache — still gives them back. Only pages outside the Go heap need it:
// on the heap (PagesOffHeap false) the GC frees a dropped holder's pages
// together with it, a cycle sooner than a finalizer could, so
// ReleaseOnDrop does nothing and those pages still count as in use in
// PageStats. holder must reach no object that reaches holder back, or it
// is never collected.
func ReleaseOnDrop[T any](holder *T, release func(*T)) {
	if PagesOffHeap {
		runtime.SetFinalizer(holder, release)
	}
}

// PageStats reports how many pages the arena holds — carved, less the
// heap pages PutPage left to the GC — and how many of them are free; the
// difference is the pages in use.
func PageStats() (mapped, free int) {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	return arena.mapped, len(arena.free)
}
