//go:build !unix || race

package bufpool

// Under the race detector, and where there is no mmap, pages live on the
// Go heap: the race runtime checks only accesses to heap memory, so this
// keeps race checking on page bytes. Each page is its own allocation, and
// the free list keeps at most maxFree pages; PutPage leaves the rest to
// the GC. Free pages are live heap here, so an unbounded free list would
// hold the heap, and the GC's heap goal with it, at their highest past
// peak. The GC also frees the pages of a dropped holder with it, so
// ReleaseOnDrop sets no finalizer here.
const (
	// PagesOffHeap reports whether arena pages live outside the Go heap.
	PagesOffHeap = false

	chunkSize = PageSize
	maxFree   = 16 << 20 / PageSize // 16 MiB
)

func newChunk() []byte {
	return make([]byte, chunkSize)
}
