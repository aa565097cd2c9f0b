//go:build unix && !race

package bufpool

import (
	"math"
	"syscall"
)

// PagesOffHeap reports whether arena pages live outside the Go heap.
const PagesOffHeap = true

const (
	// chunkSize is how much memory the arena maps at a time.
	chunkSize = 1 << 20
	// maxFree is how many free pages the arena keeps: all of them, since
	// a mapped chunk is never unmapped.
	maxFree = math.MaxInt
)

// newChunk maps chunkSize bytes of anonymous memory outside the Go heap.
// The arena never unmaps it.
func newChunk() []byte {
	c, err := syscall.Mmap(-1, 0, chunkSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bufpool: mapping a page chunk: " + err.Error())
	}
	return c
}
