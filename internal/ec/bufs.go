package ec

import (
	"sync"

	"muxfs/internal/bufpool"
)

// callBufs is the per-call holder of one stripe operation's scratch: the
// shard batches, parity and pre-read old bytes it draws from the process
// pool (internal/bufpool), and its node-write fan-out. Pooled buffers
// have stale contents, so each user either fills a buffer from a node,
// has the codec overwrite it, or clears it. The operation releases the
// holder once its node calls have returned: nodeRead and nodeWrite return
// only after the node — over muxrpc, after the reply frame — is done with
// the buffer, so nothing still reads or writes it.
type callBufs struct {
	held  []*[]byte
	views [][]byte // backing for the slices of buffers set and rows hand out

	// The write fan-out: writes[i] goes to targets[i] and ends in errs[i].
	writes  []pendingWrite
	targets []int
	errs    []error
}

type pendingWrite struct {
	buf []byte
	off int64
}

var callBufsPool = sync.Pool{New: func() any { return new(callBufs) }}

func getCallBufs() *callBufs { return callBufsPool.Get().(*callBufs) }

// buf draws one n-byte buffer with stale contents.
func (cb *callBufs) buf(n int64) []byte {
	p := bufpool.Get(int(n))
	cb.held = append(cb.held, p)
	return *p
}

// set draws count buffers of n bytes each, with stale contents.
func (cb *callBufs) set(count int, n int64) [][]byte {
	rows := cb.rows(count)
	for i := range rows {
		rows[i] = cb.buf(n)
	}
	return rows
}

// rows returns count nil slices for the caller to point into buffers.
func (cb *callBufs) rows(count int) [][]byte {
	start := len(cb.views)
	for i := 0; i < count; i++ {
		cb.views = append(cb.views, nil)
	}
	return cb.views[start:len(cb.views):len(cb.views)]
}

// write queues buf for node i at node offset off; writeAll issues it.
func (cb *callBufs) write(i int, buf []byte, off int64) {
	cb.writes = append(cb.writes, pendingWrite{buf, off})
	cb.targets = append(cb.targets, i)
	cb.errs = append(cb.errs, nil)
}

// writeAll issues the queued node writes in parallel, waits for all of
// them, and settles their outcomes.
func (f *stripeFile) writeAll(cb *callBufs) error {
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		cb.errs[i] = f.nodeWrite(cb.targets[i], cb.writes[i].buf, cb.writes[i].off)
	}
	wg.Add(len(cb.writes))
	for i := range cb.writes {
		go run(i)
	}
	wg.Wait()
	return f.ss.settleWrite(cb.targets, cb.errs)
}

// release returns every buffer, then the holder, to their pools.
func (cb *callBufs) release() {
	for i, p := range cb.held {
		bufpool.Put(p)
		cb.held[i] = nil
	}
	clear(cb.views)
	clear(cb.writes)
	clear(cb.errs)
	cb.held, cb.views = cb.held[:0], cb.views[:0]
	cb.writes, cb.targets, cb.errs = cb.writes[:0], cb.targets[:0], cb.errs[:0]
	callBufsPool.Put(cb)
}
