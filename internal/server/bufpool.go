package server

import (
	"math/bits"
	"sync"

	"muxfs/internal/muxns"
)

// Payload buffers — write and batch-write payloads read off the wire,
// read and batch-read buffers the file system fills — come from one pool
// in power-of-two size classes, so a steady stream of same-size I/O
// recycles a few buffers instead of allocating one per op. Every buffer is
// owned by the task it was drawn for and goes back to its class only when
// the task is released: after the task's reply frame has been flushed (a
// result, an error, or the busy/invalid reply that refused it), so no frame
// ever encodes a recycled buffer. Sizes past the largest class are
// allocated and left to the GC, and so are sizes under the smallest: a
// buffer rounded up to 512 B for a 1-byte payload would let one frame of
// tiny batch sub-ops claim hundreds of times its own size.

const (
	minBufShift = 9  // 512 B
	maxBufShift = 23 // 8 MiB, the default payload cap
)

var bufPools [maxBufShift - minBufShift + 1]sync.Pool

// bufClass returns the index of the smallest class holding n bytes, or -1
// when n is past the largest.
func bufClass(n int) int {
	c := bits.Len(uint(n-1)) - minBufShift
	if c < 0 {
		c = 0
	}
	if c >= len(bufPools) {
		return -1
	}
	return c
}

// getBuf returns a buffer of length n > 0. Its contents are stale: callers
// fill it before anything reads it.
func getBuf(n int) *[]byte {
	c := bufClass(n)
	if c < 0 {
		b := make([]byte, n)
		return &b
	}
	if p, _ := bufPools[c].Get().(*[]byte); p != nil {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, 1<<(c+minBufShift))
	return &b
}

// putBuf returns a getBuf buffer to its class; unpooled sizes are dropped.
func putBuf(p *[]byte) {
	if c := bufClass(cap(*p)); c >= 0 && cap(*p) == 1<<(c+minBufShift) {
		bufPools[c].Put(p)
	}
}

// task is one request from decode to reply: admitted tasks wait in the
// scheduler (sched.go) for a worker. Tasks are pooled, and hold the
// request, its reply, and the pooled buffers either one references until
// release.
type task struct {
	c    *conn
	req  muxns.NSRequest
	resp muxns.NSResponse
	cost int64
	bufs []*[]byte
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

func newTask(c *conn) *task {
	t := taskPool.Get().(*task)
	t.c = c
	return t
}

// buf draws a buffer of n bytes that the task owns until release: pooled
// from the smallest class up, exact-size and unpooled below it.
func (t *task) buf(n int) []byte {
	if n < 1<<minBufShift {
		if n == 0 {
			return nil
		}
		return make([]byte, n)
	}
	p := getBuf(n)
	t.bufs = append(t.bufs, p)
	return *p
}

// fail replaces the reply with an error status.
func (t *task) fail(err error) {
	t.resp = muxns.NSResponse{}
	t.resp.Code, t.resp.Msg = muxns.EncodeStatus(err)
}

// release returns the task's buffers, then the task, to their pools. Only
// the goroutine that flushed (or abandoned) the task's reply calls it.
func (t *task) release() {
	for i, p := range t.bufs {
		putBuf(p)
		t.bufs[i] = nil
	}
	*t = task{bufs: t.bufs[:0]}
	taskPool.Put(t)
}
