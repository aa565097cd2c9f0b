package muxrpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/muxns"
	"muxfs/internal/vfs"
)

// NSClient speaks the muxns protocol (internal/muxns) to an
// internal/server. It implements vfs.FileSystem, so a remote Mux
// namespace, tier or stripe node mounts like any local file system, and
// adds the Batch call for wire-level request coalescing.
//
// Calls pipeline: many goroutines may issue requests concurrently over one
// connection, and the server replies out of order as its workers finish;
// a per-connection reader routes responses back by sequence number.
// Handles are scoped to the connection that opened them (the server reaps
// a vanished client's handles), so each open file is pinned to its pool
// slot; after a reconnect the file transparently re-opens by path before an
// idempotent op retries.
//
// Retry semantics: every handle op except Close is idempotent by
// construction — reads, writes, truncates, and punches all carry absolute
// offsets and sizes, so re-issuing one after a reconnect re-applies the
// same state transition. In particular a retried WriteAt rewrites the
// same bytes at the same offset; with a concurrent writer to the same
// range the outcome is last-writer-wins, exactly the contract local
// WriteAt already has. Only namespace ops whose replay could observe a
// different world (Create, Remove, Rename, Mkdir) never retry: a
// connection failure mid-call surfaces as muxns.NonIdempotentError and the
// caller owns the ambiguity.
type NSClient struct {
	network string
	addr    string
	opts    NSDialOptions

	// Hello-negotiated state, (re)written by whichever slot dials and read
	// by any caller goroutine — hence atomics.
	name     atomic.Pointer[string]
	maxBatch atomic.Int64
	maxData  atomic.Int64

	next  atomic.Uint64
	slots []*nsSlot

	dials      atomic.Int64
	reconnects atomic.Int64
	dialErrs   atomic.Int64
	calls      atomic.Int64
	connErrs   atomic.Int64
	retries    atomic.Int64
	reopens    atomic.Int64
	busyWaits  atomic.Int64

	closed atomic.Bool
}

var _ vfs.FileSystem = (*NSClient)(nil)

// NSDialOptions tunes an NSClient.
type NSDialOptions struct {
	// PoolSize is the connection-pool width (default 1: a namespace
	// client models one end user; raise it for embedders that want
	// parallel large transfers on independent files).
	PoolSize int
	// BusyRetries bounds automatic retries after a server busy rejection
	// (admission control). Default 8; negative disables retries so
	// muxns.BusyError surfaces to the caller immediately.
	BusyRetries int
}

// busyWait is the backoff used when the server's busy reply carried no
// retry-after hint.
const busyWait = 2 * time.Millisecond

func (o *NSDialOptions) fill() {
	if o.PoolSize < 1 {
		o.PoolSize = 1
	}
	if o.BusyRetries == 0 {
		o.BusyRetries = 8
	}
}

// NSDial connects to a namespace server with default options.
func NSDial(network, addr string) (*NSClient, error) {
	return NSDialOpts(network, addr, NSDialOptions{})
}

// NSDialOpts connects with explicit options. The first connection is
// established (and the hello handshake run) eagerly so a dead or
// wrong-protocol peer fails fast; remaining slots dial lazily.
func NSDialOpts(network, addr string, opts NSDialOptions) (*NSClient, error) {
	opts.fill()
	c := &NSClient{network: network, addr: addr, opts: opts}
	c.slots = make([]*nsSlot, opts.PoolSize)
	for i := range c.slots {
		c.slots[i] = &nsSlot{c: c}
	}
	if _, err := c.slots[0].get(); err != nil {
		return nil, err
	}
	return c, nil
}

// MaxBatch reports the server's negotiated batch-size limit.
func (c *NSClient) MaxBatch() int { return int(c.maxBatch.Load()) }

// MaxData reports the server's negotiated per-request payload cap.
// Reads/writes larger than it are chunked transparently; batch sub-ops
// must fit it.
func (c *NSClient) MaxData() int64 {
	if m := c.maxData.Load(); m > 0 {
		return m
	}
	return muxns.NSDefaultMaxData
}

// PoolSize reports the connection-pool width.
func (c *NSClient) PoolSize() int { return len(c.slots) }

// Close tears down every pooled connection.
func (c *NSClient) Close() error {
	c.closed.Store(true)
	for _, s := range c.slots {
		s.close()
	}
	return nil
}

// nsSlot is one pool slot: a lazily (re)dialed connection.
type nsSlot struct {
	c        *NSClient
	mu       sync.Mutex
	cur      *nsConn
	inflight atomic.Int64
}

// nsConn is one live connection: a frame stream with a reader goroutine
// routing responses to pending calls by sequence number.
type nsConn struct {
	nc net.Conn
	fr *muxns.NSFrameReader // read loop only (after the handshake)

	wmu sync.Mutex // serializes frame writes
	fw  *muxns.NSFrameWriter

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*nsCall
	dead    bool
	err     error
}

// nsCall is one request in flight. Calls are pooled and keep their
// one-slot done channel across uses; the read loop decodes the reply into
// resp — a read's data straight into dst — or sets err, then signals done
// exactly once. The caller owns the call from done until release.
type nsCall struct {
	op   muxns.NSOp
	dst  []byte
	resp muxns.NSResponse
	err  error
	done chan struct{}
}

var nsCallPool = sync.Pool{New: func() any { return &nsCall{done: make(chan struct{}, 1)} }}

// release returns the call to the pool, dropping its references to the
// caller's buffer and the reply's fields.
func (cl *nsCall) release() {
	*cl = nsCall{done: cl.done}
	nsCallPool.Put(cl)
}

// get returns the slot's live connection, dialing (and handshaking) a new
// one when the previous died.
func (s *nsSlot) get() (*nsConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil {
		return s.cur, nil
	}
	if s.c.closed.Load() {
		return nil, vfs.ErrClosed
	}
	nc, err := net.Dial(s.c.network, s.c.addr)
	if err != nil {
		totalDialErrors.Add(1)
		s.c.dialErrs.Add(1)
		return nil, err
	}
	// The frame cap starts at the default payload budget (the hello reply
	// is tiny) and widens to the server's negotiated MaxData below.
	conn := &nsConn{
		nc:      nc,
		fw:      muxns.NewNSFrameWriter(nc),
		fr:      muxns.NewNSFrameReader(nc, muxns.NSDefaultMaxData+muxns.NSFrameSlack),
		pending: map[uint64]*nsCall{},
	}
	// Hello handshake, synchronous on the fresh stream: a peer that is
	// reachable but not speaking muxns v3 fails here with ErrHandshake.
	conn.seq = 1
	var hr muxns.NSResponse
	err = conn.send(&muxns.NSRequest{Seq: 1, Op: muxns.NSHello, N: muxns.NSProtoVersion})
	if err == nil {
		err = conn.fr.ReadResponse(&hr)
	}
	if err == nil {
		err = hr.Err()
	}
	if err != nil {
		nc.Close()
		totalHandshakeFails.Add(1)
		return nil, fmt.Errorf("%w: %s %s: %v", muxns.ErrHandshake, s.c.network, s.c.addr, err)
	}
	totalDials.Add(1)
	if s.c.dials.Add(1) > int64(len(s.c.slots)) {
		s.c.reconnects.Add(1)
	}
	name := "muxns:" + hr.ServerName
	s.c.name.Store(&name)
	if hr.MaxBatch > 0 {
		s.c.maxBatch.Store(int64(hr.MaxBatch))
	}
	if hr.MaxData > 0 {
		s.c.maxData.Store(hr.MaxData)
		// Response frames carry at most one request's payload; widen the
		// cap before the first pipelined frame (readLoop is not running
		// yet, so this cannot race a read).
		conn.fr.SetMax(hr.MaxData + muxns.NSFrameSlack)
	}
	s.cur = conn
	go s.readLoop(conn)
	return conn, nil
}

// drop forgets conn if it is still current, so the next get() redials.
func (s *nsSlot) drop(conn *nsConn) {
	s.mu.Lock()
	if s.cur == conn {
		s.cur = nil
	}
	s.mu.Unlock()
}

func (s *nsSlot) close() {
	s.mu.Lock()
	conn := s.cur
	s.cur = nil
	s.mu.Unlock()
	if conn != nil {
		conn.nc.Close()
	}
}

// readLoop routes response frames to their calls until the stream dies or
// a frame fails to parse, then fails every pending call. The call whose
// reply broke the stream is told last, once the connection is dead and
// dropped, so nothing its caller does next can land on it.
func (s *nsSlot) readLoop(conn *nsConn) {
	for {
		cl, err := conn.readOne()
		if err != nil {
			// A hang-up is never end of file to a caller: a ReadAt failed
			// with io.EOF would read as a short file, not a lost peer.
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			s.drop(conn) // before fail: a failed call's retry must redial
			conn.fail(err)
			conn.nc.Close()
			if cl != nil {
				cl.err = err
				cl.done <- struct{}{}
			}
			return
		}
	}
}

// readOne reads one response frame and delivers it to the call waiting on
// its Seq. A reply no call waits for, one that does not match its call's
// op, or one carrying more read data than the call's destination holds is
// a protocol error: it is returned (with the call, undelivered) and the
// connection dies.
func (c *nsConn) readOne() (*nsCall, error) {
	var cl *nsCall
	err := c.fr.ReadResponseFor(func(seq uint64, op muxns.NSOp) (*muxns.NSResponse, []byte, error) {
		c.mu.Lock()
		cl = c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if cl == nil {
			return nil, nil, fmt.Errorf("reply to unknown seq %d", seq)
		}
		if op != cl.op {
			return nil, nil, fmt.Errorf("reply op %s for a %s call", op, cl.op)
		}
		return &cl.resp, cl.dst, nil
	})
	if err != nil {
		return cl, err
	}
	cl.done <- struct{}{}
	return nil, nil
}

// send writes one frame and flushes it. Callers hold no conn locks.
func (c *nsConn) send(req *muxns.NSRequest) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.fw.WriteRequest(req)
}

// register allocates a sequence number and parks a pooled call for it.
func (c *nsConn) register(op muxns.NSOp, dst []byte) (uint64, *nsCall, error) {
	cl := nsCallPool.Get().(*nsCall)
	cl.op, cl.dst = op, dst
	c.mu.Lock()
	if c.dead {
		err := c.err
		c.mu.Unlock()
		cl.release()
		return 0, nil, err
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = cl
	c.mu.Unlock()
	return seq, cl, nil
}

// unregister withdraws a call whose request never went out. It reports
// false when the read loop (or fail) already claimed the call, which is
// then signaled and must be waited for before release.
func (c *nsConn) unregister(seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[seq]; !ok {
		return false
	}
	delete(c.pending, seq)
	return true
}

// fail marks the connection dead and errors out every pending call.
func (c *nsConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.err = err
	pend := c.pending
	c.pending = map[uint64]*nsCall{}
	c.mu.Unlock()
	for _, cl := range pend {
		cl.err = err
		cl.done <- struct{}{}
	}
}

// do issues one request over conn and waits for its routed response; a
// read's data lands in dst. The caller releases the returned call. A
// connection-level failure is returned as-is (callers classify it with
// isConnErr).
func (c *NSClient) do(s *nsSlot, conn *nsConn, req *muxns.NSRequest, dst []byte) (*nsCall, error) {
	seq, cl, err := conn.register(req.Op, dst)
	if err != nil {
		return nil, err
	}
	req.Seq = seq
	c.calls.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if err := conn.send(req); err != nil {
		if !conn.unregister(seq) {
			<-cl.done
		}
		cl.release()
		// Stream state unknown: kill it, and let the next call redial.
		s.drop(conn)
		conn.nc.Close()
		c.connErrs.Add(1)
		return nil, err
	}
	<-cl.done
	if err := cl.err; err != nil {
		cl.release()
		c.connErrs.Add(1)
		return nil, err
	}
	return cl, nil
}

// doBusy runs do plus the busy-retry loop: a busy response sleeps the
// server's retry-after hint and re-issues the request, bounded by
// BusyRetries. Connection errors pass through untouched.
func (c *NSClient) doBusy(s *nsSlot, conn *nsConn, req *muxns.NSRequest, dst []byte) (*nsCall, error) {
	for attempt := 0; ; attempt++ {
		cl, err := c.do(s, conn, req, dst)
		if err != nil {
			return nil, err
		}
		if !cl.resp.Busy() || attempt >= c.opts.BusyRetries || c.opts.BusyRetries < 0 {
			return cl, nil
		}
		wait := c.busyBackoff(&cl.resp, attempt)
		cl.release()
		c.busyWaits.Add(1)
		time.Sleep(wait)
	}
}

// busyBackoff is the sleep before busy-retry attempt (0-based). The
// server's retry-after hint has millisecond granularity, so a client
// whose token bucket hovers just under the cost would otherwise hammer
// at the hint floor; consecutive rejections grow the wait exponentially
// until the client converges on the limiter's actual admission period.
func (c *NSClient) busyBackoff(resp *muxns.NSResponse, attempt int) time.Duration {
	wait := time.Duration(resp.RetryAfterMs) * time.Millisecond
	if wait <= 0 {
		wait = busyWait
	}
	if attempt > 6 {
		attempt = 6
	}
	wait <<= attempt
	if wait > 200*time.Millisecond {
		wait = 200 * time.Millisecond
	}
	return wait
}

// isConnErr reports whether err is a connection-level failure (socket
// died, stream desynchronized) rather than an application error returned
// by the server.
func isConnErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "unexpected EOF") ||
		strings.Contains(s, "connection reset") ||
		strings.Contains(s, "broken pipe") ||
		strings.Contains(s, "use of closed network connection")
}

// pick chooses the pool slot for a path-level request.
func (c *NSClient) pick() *nsSlot { return c.slots[c.next.Add(1)%uint64(len(c.slots))] }

// call issues a path-level request over slot s, redialing and retrying
// once on connection failure when the op is idempotent. It returns the
// call (for the caller to release) and the connection that served it.
func (c *NSClient) call(s *nsSlot, req *muxns.NSRequest, idempotent bool) (*nsCall, *nsConn, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := s.get()
		if err != nil {
			if lastErr != nil {
				return nil, nil, lastErr
			}
			return nil, nil, err
		}
		cl, err := c.doBusy(s, conn, req, nil)
		if err == nil {
			return cl, conn, nil
		}
		if !isConnErr(err) {
			return nil, nil, err
		}
		if !idempotent {
			return nil, nil, &muxns.NonIdempotentError{Method: "muxns." + req.Op.String(), Cause: err}
		}
		lastErr = err
		c.retries.Add(1)
	}
	return nil, nil, lastErr
}

// Name identifies the remote namespace.
func (c *NSClient) Name() string {
	if n := c.name.Load(); n != nil {
		return *n
	}
	return "muxns:"
}

// Create makes and opens a remote file. Not idempotent: a connection
// failure mid-call surfaces muxns.NonIdempotentError.
func (c *NSClient) Create(path string) (vfs.File, error) {
	return c.openOrCreate(path, muxns.NSCreate, false)
}

// Open opens an existing remote file; safe to retry.
func (c *NSClient) Open(path string) (vfs.File, error) {
	return c.openOrCreate(path, muxns.NSOpen, true)
}

func (c *NSClient) openOrCreate(path string, op muxns.NSOp, idempotent bool) (vfs.File, error) {
	s := c.pick()
	cl, conn, err := c.call(s, &muxns.NSRequest{Op: op, Path: path}, idempotent)
	if err != nil {
		return nil, err
	}
	defer cl.release()
	if err := cl.resp.Err(); err != nil {
		return nil, err
	}
	return &NSFile{c: c, slot: s, conn: conn, handle: cl.resp.Handle, path: vfs.CleanPath(path)}, nil
}

func (c *NSClient) callOK(req *muxns.NSRequest, idempotent bool) error {
	cl, _, err := c.call(c.pick(), req, idempotent)
	if err != nil {
		return err
	}
	defer cl.release()
	return cl.resp.Err()
}

// Remove deletes a remote file or empty directory (not idempotent).
func (c *NSClient) Remove(path string) error {
	return c.callOK(&muxns.NSRequest{Op: muxns.NSRemove, Path: path}, false)
}

// Rename moves a remote file (not idempotent).
func (c *NSClient) Rename(oldPath, newPath string) error {
	return c.callOK(&muxns.NSRequest{Op: muxns.NSRename, Path: oldPath, Path2: newPath}, false)
}

// Mkdir creates a remote directory (not idempotent).
func (c *NSClient) Mkdir(path string) error {
	return c.callOK(&muxns.NSRequest{Op: muxns.NSMkdir, Path: path}, false)
}

// ReadDir lists a remote directory.
func (c *NSClient) ReadDir(path string) ([]vfs.DirEntry, error) {
	cl, _, err := c.call(c.pick(), &muxns.NSRequest{Op: muxns.NSReadDir, Path: path}, true)
	if err != nil {
		return nil, err
	}
	defer cl.release()
	return cl.resp.Entries, cl.resp.Err()
}

// Stat returns remote path metadata.
func (c *NSClient) Stat(path string) (vfs.FileInfo, error) {
	cl, _, err := c.call(c.pick(), &muxns.NSRequest{Op: muxns.NSStat, Path: path}, true)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	defer cl.release()
	return cl.resp.Info, cl.resp.Err()
}

// SetAttr applies a partial metadata update (absolute values; idempotent).
func (c *NSClient) SetAttr(path string, attr vfs.SetAttr) error {
	return c.callOK(&muxns.NSRequest{Op: muxns.NSSetAttr, Path: path, Attr: muxns.FromSetAttr(attr)}, true)
}

// Truncate sets a remote file's size by path (idempotent).
func (c *NSClient) Truncate(path string, size int64) error {
	return c.callOK(&muxns.NSRequest{Op: muxns.NSTruncate, Path: path, N: size}, true)
}

// Statfs reports remote capacity.
func (c *NSClient) Statfs() (vfs.StatFS, error) {
	cl, _, err := c.call(c.pick(), &muxns.NSRequest{Op: muxns.NSStatfs}, true)
	if err != nil {
		return vfs.StatFS{}, err
	}
	defer cl.release()
	return cl.resp.Stat, cl.resp.Err()
}

// Sync persists the remote namespace.
func (c *NSClient) Sync() error {
	return c.callOK(&muxns.NSRequest{Op: muxns.NSSync}, true)
}

// NSFile is an open remote file, pinned to the pool slot whose connection
// holds its server-side handle.
type NSFile struct {
	c    *NSClient
	slot *nsSlot
	path string

	mu     sync.Mutex
	conn   *nsConn
	handle uint64
	closed bool
}

var _ vfs.File = (*NSFile)(nil)

// Path returns the path the handle was opened with.
func (f *NSFile) Path() string { return f.path }

// ensure returns a live connection and a valid handle on it, re-opening
// the file by path when the original connection died (server-side handles
// are connection-scoped).
func (f *NSFile) ensure() (*nsConn, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, 0, vfs.ErrClosed
	}
	conn, err := f.slot.get()
	if err != nil {
		return nil, 0, err
	}
	if conn != f.conn {
		cl, err := f.c.doBusy(f.slot, conn, &muxns.NSRequest{Op: muxns.NSOpen, Path: f.path}, nil)
		if err != nil {
			return nil, 0, err
		}
		handle, rerr := cl.resp.Handle, cl.resp.Err()
		cl.release()
		if rerr != nil {
			return nil, 0, rerr
		}
		f.conn, f.handle = conn, handle
		f.c.reopens.Add(1)
	}
	return f.conn, f.handle, nil
}

// rw issues one handle op with a single reconnect-reopen-retry; every
// handle op except Close is idempotent (absolute offsets, absolute sizes).
// A read's data lands in dst. The caller releases the returned call.
func (f *NSFile) rw(req *muxns.NSRequest, dst []byte) (*nsCall, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		conn, handle, err := f.ensure()
		if err != nil {
			if isConnErr(err) && lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		req.Handle = handle
		cl, err := f.c.doBusy(f.slot, conn, req, dst)
		if err == nil {
			return cl, nil
		}
		if !isConnErr(err) {
			return nil, err
		}
		lastErr = err
		f.c.retries.Add(1)
	}
	return nil, lastErr
}

// rwOK issues a handle op that returns only a status.
func (f *NSFile) rwOK(req *muxns.NSRequest) error {
	cl, err := f.rw(req, nil)
	if err != nil {
		return err
	}
	defer cl.release()
	return cl.resp.Err()
}

// readChunked reads p at off in wire reads of at most max bytes. read
// fills one chunk read from off and reports how many bytes landed and
// whether the file ended there. readChunked stops at an error, at the end
// of the file (reported as io.EOF), at a short read, or with p full.
func readChunked(p []byte, off, max int64, read func(chunk []byte, off int64) (n int, eof bool, err error)) (int, error) {
	total := 0
	for {
		chunk := p[total:]
		if int64(len(chunk)) > max {
			chunk = chunk[:max]
		}
		n, eof, err := read(chunk, off+int64(total))
		if err != nil {
			return total, err
		}
		total += n
		if eof {
			return total, io.EOF
		}
		if n < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// ReadAt reads from the remote file. The reply's data is read off the
// wire straight into p. Requests larger than the server's negotiated
// payload cap are chunked into several wire reads.
func (f *NSFile) ReadAt(p []byte, off int64) (int, error) {
	return readChunked(p, off, f.c.MaxData(), func(chunk []byte, off int64) (int, bool, error) {
		cl, err := f.rw(&muxns.NSRequest{Op: muxns.NSRead, Off: off, N: int64(len(chunk))}, chunk)
		if err != nil {
			return 0, false, err
		}
		n, eof, err := len(cl.resp.Data), cl.resp.EOF, cl.resp.Err()
		cl.release()
		return n, eof, err
	})
}

// WriteAt writes to the remote file (absolute offset; idempotent).
// Payloads larger than the server's negotiated cap are chunked into
// several wire writes.
func (f *NSFile) WriteAt(p []byte, off int64) (int, error) {
	max := f.c.MaxData()
	total := 0
	for {
		chunk := p[total:]
		if int64(len(chunk)) > max {
			chunk = chunk[:max]
		}
		cl, err := f.rw(&muxns.NSRequest{Op: muxns.NSWrite, Off: off + int64(total), Data: chunk}, nil)
		if err != nil {
			return total, err
		}
		n, rerr := int(cl.resp.N), cl.resp.Err()
		cl.release()
		total += n
		if rerr != nil {
			return total, rerr
		}
		if n < len(chunk) {
			return total, io.ErrShortWrite
		}
		if total == len(p) {
			return total, nil
		}
	}
}

// Truncate sets the remote file's size.
func (f *NSFile) Truncate(size int64) error {
	return f.rwOK(&muxns.NSRequest{Op: muxns.NSTruncateHandle, N: size})
}

// PunchHole deallocates a remote range.
func (f *NSFile) PunchHole(off, n int64) error {
	return f.rwOK(&muxns.NSRequest{Op: muxns.NSPunch, Off: off, N: n})
}

// Sync fsyncs the remote file.
func (f *NSFile) Sync() error {
	return f.rwOK(&muxns.NSRequest{Op: muxns.NSSyncHandle})
}

// Stat returns the remote file's metadata.
func (f *NSFile) Stat() (vfs.FileInfo, error) {
	cl, err := f.rw(&muxns.NSRequest{Op: muxns.NSStatHandle}, nil)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	defer cl.release()
	return cl.resp.Info, cl.resp.Err()
}

// Extents lists the remote file's allocated runs.
func (f *NSFile) Extents() ([]vfs.Extent, error) {
	cl, err := f.rw(&muxns.NSRequest{Op: muxns.NSExtents}, nil)
	if err != nil {
		return nil, err
	}
	defer cl.release()
	return cl.resp.Extents, cl.resp.Err()
}

// Close releases the remote handle. If the connection already died, the
// server reaped the handle with it; closing is then a local no-op.
func (f *NSFile) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	conn, handle := f.conn, f.handle
	f.mu.Unlock()
	f.slot.mu.Lock()
	live := f.slot.cur == conn
	f.slot.mu.Unlock()
	if !live {
		return nil
	}
	cl, err := f.c.do(f.slot, conn, &muxns.NSRequest{Op: muxns.NSClose, Handle: handle}, nil)
	if err != nil {
		if isConnErr(err) {
			return nil // the connection's death closed the handle server-side
		}
		return err
	}
	defer cl.release()
	return cl.resp.Err()
}

// NSBatchOp is one sub-operation for Batch: a read (Read=true, N bytes at
// Off) or a write (Data at Off) against an open NSFile.
type NSBatchOp struct {
	File *NSFile
	Read bool
	Off  int64
	N    int
	Data []byte
}

// NSBatchResult is one sub-operation's outcome, in the order of the ops
// passed to Batch.
type NSBatchResult struct {
	N         int
	EOF       bool
	Data      []byte
	Err       error
	Coalesced bool
}

// Batch ships many small reads/writes in one request frame per pool slot.
// The server coalesces adjacent sub-ops per handle into single downward
// dispatches and replies per sub-op; results may have been executed in any
// order, so dependent ops (a read of a write's range) must not share a
// batch. Oversized batches split at the server's negotiated limit.
func (c *NSClient) Batch(ops []NSBatchOp) ([]NSBatchResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	results := make([]NSBatchResult, len(ops))
	maxData := c.MaxData()
	// Group op indexes by slot: handles are pinned to connections.
	groups := map[*nsSlot][]int{}
	for i, op := range ops {
		if op.File == nil {
			return nil, errors.New("muxrpc: batch op without a file")
		}
		if int64(op.N) > maxData || int64(len(op.Data)) > maxData {
			return nil, fmt.Errorf("%w: batch sub-op %d payload exceeds negotiated cap %d",
				vfs.ErrInvalid, i, maxData)
		}
		groups[op.File.slot] = append(groups[op.File.slot], i)
	}
	max := int(c.maxBatch.Load())
	if max <= 0 {
		max = len(ops)
	}
	for slot, idxs := range groups {
		// Frames split at the negotiated sub-op count AND at the payload
		// cap, which bounds a whole frame's payload sum server-side.
		for start := 0; start < len(idxs); {
			end := start
			var payload int64
			for end < len(idxs) && end-start < max {
				op := &ops[idxs[end]]
				sz := int64(op.N)
				if !op.Read {
					sz = int64(len(op.Data))
				}
				if end > start && payload+sz > maxData {
					break
				}
				payload += sz
				end++
			}
			if err := c.batchGroup(slot, ops, idxs[start:end], results); err != nil {
				return nil, err
			}
			start = end
		}
	}
	return results, nil
}

// batchGroup issues one batch frame for the given op indexes, with a
// single reconnect-reopen-retry (batched reads and absolute-offset writes
// are idempotent).
func (c *NSClient) batchGroup(slot *nsSlot, ops []NSBatchOp, idxs []int, results []NSBatchResult) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		subs := make([]muxns.NSSubOp, 0, len(idxs))
		var conn *nsConn
		for _, i := range idxs {
			fconn, handle, err := ops[i].File.ensure()
			if err != nil {
				return err
			}
			conn = fconn
			sub := muxns.NSSubOp{ID: uint32(i), Handle: handle, Off: ops[i].Off}
			if ops[i].Read {
				sub.Op = muxns.NSRead
				sub.N = int64(ops[i].N)
			} else {
				sub.Op = muxns.NSWrite
				sub.Data = ops[i].Data
			}
			subs = append(subs, sub)
		}
		cl, err := c.doBusy(slot, conn, &muxns.NSRequest{Op: muxns.NSBatch, Batch: subs}, nil)
		if err != nil {
			if !isConnErr(err) {
				return err
			}
			lastErr = err
			c.retries.Add(1)
			continue
		}
		err = cl.resp.Err()
		if err == nil {
			for _, sr := range cl.resp.Batch {
				i := int(sr.ID)
				if i < 0 || i >= len(results) {
					continue
				}
				results[i] = NSBatchResult{
					N: int(sr.N), EOF: sr.EOF, Data: sr.Data,
					Err: sr.Err(), Coalesced: sr.Coalesced,
				}
			}
		}
		cl.release()
		return err
	}
	return lastErr
}
