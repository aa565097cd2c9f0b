package server

import (
	"sync"

	"muxfs/internal/bufpool"
	"muxfs/internal/muxns"
)

// Payload buffers — write and batch-write payloads read off the wire,
// read and batch-read buffers the file system fills — come from the
// process's buffer pool (internal/bufpool). Every buffer is owned by the
// task it was drawn for and goes back to the pool only when the task is
// released: after the task's reply frame has been flushed (a result, an
// error, or the busy/invalid reply that refused it), so no frame ever
// encodes a recycled buffer. Sizes under the pool's smallest class are
// allocated exact and left to the GC: a buffer rounded up to 512 B for a
// 1-byte payload would let one frame of tiny batch sub-ops claim hundreds
// of times its own size.

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
	if n < bufpool.MinSize {
		if n == 0 {
			return nil
		}
		return make([]byte, n)
	}
	p := bufpool.Get(n)
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
		bufpool.Put(p)
		t.bufs[i] = nil
	}
	*t = task{bufs: t.bufs[:0]}
	taskPool.Put(t)
}
