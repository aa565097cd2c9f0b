// Package bufpool is the process's one byte-buffer pool: power-of-two size
// classes from 512 B to 8 MiB, each a mutex-guarded LIFO free list of
// *[]byte, so a steady stream of same-size I/O recycles a few buffers
// instead of allocating one per op. Unlike a sync.Pool, a free list is not
// emptied by a GC cycle — refilling it inside a busy window made the
// allocation rate depend on when the collector ran — and it keeps at most
// maxFreeBytes (8 MiB) of buffers per class, or one buffer where that is
// larger: at worst 15 classes × 8 MiB = 120 MiB of Go heap that is never
// released and counts toward the GC's heap goal. Each class takes one
// mutex, where a sync.Pool had per-P caches; contention was measured on
// two cores only.
//
// Pages that hold stored data — simulated device pages, dirty page-cache
// pages and journal transactions being encoded — come instead from a page
// arena outside the Go heap (GetPage, PutPage): they live as long as the
// data, not one op, so a GC cycle must not count them toward its heap
// goal.
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

// maxFreeBytes caps the bytes of free buffers a class keeps; a class
// whose buffers are larger keeps one.
const maxFreeBytes = 8 << 20

// freeList is one class's free buffers, most recently put on top.
type freeList struct {
	mu   sync.Mutex
	bufs []*[]byte
}

var classes [maxShift - minShift + 1]freeList

// class returns the index of the smallest class holding n bytes, or -1
// when n is past the largest.
func class(n int) int {
	c := bits.Len(uint(n-1)) - minShift
	if c < 0 {
		c = 0
	}
	if c >= len(classes) {
		return -1
	}
	return c
}

// classCap is how many free buffers class c keeps.
func classCap(c int) int { return max(1, maxFreeBytes>>(c+minShift)) }

// Get returns a buffer of length n > 0 with stale contents. Sizes past the
// largest class are allocated exact and not pooled.
func Get(n int) *[]byte {
	c := class(n)
	if c < 0 {
		b := make([]byte, n)
		return &b
	}
	fl := &classes[c]
	fl.mu.Lock()
	if k := len(fl.bufs) - 1; k >= 0 {
		p := fl.bufs[k]
		fl.bufs[k] = nil
		fl.bufs = fl.bufs[:k]
		fl.mu.Unlock()
		*p = (*p)[:n]
		return p
	}
	fl.mu.Unlock()
	b := make([]byte, n, 1<<(c+minShift))
	return &b
}

// Put returns a Get buffer to its class; buffers of unpooled sizes, and
// buffers past the class's cap, are left to the GC.
func Put(p *[]byte) {
	c := class(cap(*p))
	if c < 0 || cap(*p) != 1<<(c+minShift) {
		return
	}
	fl := &classes[c]
	fl.mu.Lock()
	if len(fl.bufs) < classCap(c) {
		fl.bufs = append(fl.bufs, p)
	}
	fl.mu.Unlock()
}
