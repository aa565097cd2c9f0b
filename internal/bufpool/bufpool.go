// Package bufpool is the process's one byte-buffer pool: power-of-two size
// classes from 512 B to 8 MiB, each a sync.Pool of *[]byte, so a steady
// stream of same-size I/O recycles a few buffers instead of allocating one
// per op. The GC may empty the pools at any cycle, so an idle process pins
// no buffer heap.
//
// Pages that hold stored data — simulated device pages and dirty page-cache
// pages — come instead from a page arena outside the Go heap (GetPage,
// PutPage): they live as long as the data, not one op, so a GC cycle must
// neither count them toward its heap goal nor empty their free list.
//
// A buffer's or page's contents are stale: whatever its last holder left
// in it. A caller fills (or clears) every byte it will read. A buffer
// belongs to the caller from Get until Put (a page from GetPage until
// PutPage); after that nothing may touch it, so a holder returns a buffer
// only once every reader and writer of it — a pending reply frame, an
// in-flight node call — is done with it.
package bufpool

import (
	"math/bits"
	"sync"
)

const (
	minShift = 9  // 512 B, the smallest class
	maxShift = 23 // 8 MiB, the largest class
)

// MinSize is the smallest class: Get rounds smaller sizes up to it.
const MinSize = 1 << minShift

var pools [maxShift - minShift + 1]sync.Pool

// class returns the index of the smallest class holding n bytes, or -1
// when n is past the largest.
func class(n int) int {
	c := bits.Len(uint(n-1)) - minShift
	if c < 0 {
		c = 0
	}
	if c >= len(pools) {
		return -1
	}
	return c
}

// Get returns a buffer of length n > 0 with stale contents. Sizes past the
// largest class are allocated exact and not pooled.
func Get(n int) *[]byte {
	c := class(n)
	if c < 0 {
		b := make([]byte, n)
		return &b
	}
	if p, _ := pools[c].Get().(*[]byte); p != nil {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, 1<<(c+minShift))
	return &b
}

// Put returns a Get buffer to its class; buffers of unpooled sizes are
// left to the GC.
func Put(p *[]byte) {
	if c := class(cap(*p)); c >= 0 && cap(*p) == 1<<(c+minShift) {
		pools[c].Put(p)
	}
}
