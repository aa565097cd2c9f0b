package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/muxns"
	"muxfs/internal/telemetry"
	"muxfs/internal/vfs"
)

// Options tunes a namespace server. The zero value is usable: Fill applies
// the defaults documented per field.
type Options struct {
	// Workers is the execution-pool width (default 2×GOMAXPROCS). This is
	// the server's total concurrency: no request ever runs outside the
	// pool.
	Workers int
	// MaxQueue is the admission high watermark (default 1024 tasks).
	// Requests arriving with the queue full are rejected busy.
	MaxQueue int
	// RatePerClient caps each client's sustained throughput in cost units
	// per second (1 unit per request + 1 per 32KiB payload); 0 disables
	// rate limiting. Burst is the bucket size (default 4× the per-second
	// rate, min one quantum).
	RatePerClient float64
	Burst         float64
	// CacheSize and CacheTTL shape the attr/readdir cache (defaults 4096
	// entries, 100ms). CacheSize 0 keeps the default; negative disables
	// the cache.
	CacheSize int
	CacheTTL  time.Duration
	// MaxBatch bounds sub-ops per batch frame (default 256), negotiated
	// down to clients in the hello reply.
	MaxBatch int
	// MaxData caps one request's payload — a read's length, a write's
	// data, a batch frame's payload sum — so no admitted frame can demand
	// an unbounded allocation (default muxns.NSDefaultMaxData, 8MiB).
	// Violations are rejected with vfs.ErrInvalid at admission, before
	// any allocation; the cap is negotiated down to clients in the hello
	// reply and NSClient chunks larger transfers transparently. One wire
	// frame's encoded size is capped at MaxData plus muxns.NSFrameSlack,
	// enforced from the length prefix before anything is decoded or
	// allocated. An oversized frame kills its connection: the stream
	// cannot be resynchronized past a frame that was never read.
	MaxData int64
	// Registry, when set, records per-op latency histograms
	// (mux_server_op_ns) and collects the Stats counters as the
	// mux_server_* families until Drain. Counters in Stats are always
	// maintained; they are plain atomics and cost nothing measurable.
	Registry *telemetry.Registry
}

// Fill applies defaults in place and returns the options.
func (o Options) fill() Options {
	if o.Workers <= 0 {
		o.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 1024
	}
	if o.RatePerClient > 0 && o.Burst <= 0 {
		o.Burst = 4 * o.RatePerClient
		if o.Burst < drrQuantum {
			o.Burst = drrQuantum
		}
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.CacheTTL <= 0 {
		o.CacheTTL = 100 * time.Millisecond
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxData <= 0 {
		o.MaxData = muxns.NSDefaultMaxData
	}
	return o
}

// Server serves one vfs.FileSystem (typically a *core.Mux) to many muxns
// clients. See the package comment for the admission/fairness/cache
// design.
type Server struct {
	fs   vfs.FileSystem
	opts Options

	sched *sched
	cache *attrCache // nil when disabled
	tel   *telemetry.Registry
	opNs  []*telemetry.Histogram // per-op latency, indexed by NSOp
	unreg func()                 // removes the server's collector (nil without a registry)

	connMu sync.Mutex
	conns  map[*conn]struct{}

	wg        sync.WaitGroup
	executing atomic.Int64
	closed    atomic.Bool

	// counters (see Stats)
	requests        atomic.Int64
	rejectedQueue   atomic.Int64
	rejectedRate    atomic.Int64
	rejectedInvalid atomic.Int64
	rejectedFrame   atomic.Int64
	bytesRead       atomic.Int64
	bytesWritten    atomic.Int64
	batchSubOps     atomic.Int64
	batchDisp       atomic.Int64
	batchSaved      atomic.Int64
	handles         atomic.Int64
	accepted        atomic.Int64
}

// New builds a namespace server over fs and starts its worker pool.
func New(fs vfs.FileSystem, opts Options) *Server {
	opts = opts.fill()
	s := &Server{
		fs:    fs,
		opts:  opts,
		sched: newSched(opts.MaxQueue, opts.RatePerClient, opts.Burst),
		conns: map[*conn]struct{}{},
		tel:   opts.Registry,
	}
	if opts.CacheSize > 0 {
		s.cache = newAttrCache(opts.CacheSize, opts.CacheTTL)
	}
	if s.tel != nil {
		s.opNs = make([]*telemetry.Histogram, muxns.NSOpCount())
		for op := 0; op < muxns.NSOpCount(); op++ {
			s.opNs[op] = s.tel.Histogram("mux_server_op_ns",
				"namespace-server op service time (ns)",
				telemetry.Label{Key: "op", Value: muxns.NSOp(op).String()})
		}
		s.unreg = s.tel.Register(s.Collect)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Serve accepts muxns connections on l until the listener closes. It
// blocks; run it in a goroutine.
func (s *Server) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := &conn{srv: s, nc: nc, fw: muxns.NewNSFrameWriter(nc), handles: map[uint64]nsHandle{}, cq: &clientQ{}}
		// Checked under connMu, which sever holds: a connection is either
		// registered before Drain severs the table or refused here.
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.accepted.Add(1)
		go c.readLoop()
	}
}

// InFlight reports queued plus executing requests.
func (s *Server) InFlight() int64 {
	return int64(s.sched.depth()) + s.executing.Load()
}

// Drain is the server's terminal shutdown. It waits up to timeout for
// queued and executing requests to finish, severs every connection, then
// stops the worker pool, so nothing the server started outlives it. The
// caller closes its listeners first so no new connections arrive; Serve
// goroutines exit when their listeners close. Returns the number of
// requests still in flight when connections were cut (0 for a clean
// drain). Only the first Drain or Close does anything.
func (s *Server) Drain(timeout time.Duration) int64 {
	if s.closed.Swap(true) {
		return 0
	}
	deadline := time.Now().Add(timeout)
	for s.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cut := s.InFlight()
	s.sever()
	s.sched.close()
	s.wg.Wait()
	if s.unreg != nil {
		s.unreg()
	}
	return cut
}

// Close is Drain without a grace period.
func (s *Server) Close() error {
	s.Drain(0)
	return nil
}

// sever closes every connection; each read loop then tears its
// connection down.
func (s *Server) sever() {
	s.connMu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.connMu.Unlock()
}

// worker executes admitted tasks until the scheduler closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		t := s.sched.next()
		if t == nil {
			return
		}
		s.executing.Add(1)
		c := t.c
		s.serve(t)
		c.reply(t) // releases t
		s.executing.Add(-1)
		c.executing.Add(-1)
	}
}

// validate rejects malformed or oversized requests at admission time,
// before any allocation, queueing, or dispatch happens on their behalf:
// wire integers are untrusted, and a negative read length would otherwise
// panic make([]byte, N) inside a worker. Violations answer vfs.ErrInvalid
// and the connection lives on — unlike a frame-cap breach, nothing was
// half-read.
func (s *Server) validate(req *muxns.NSRequest) error {
	maxData := s.opts.MaxData
	switch req.Op {
	case muxns.NSRead:
		if req.Off < 0 || req.N < 0 || req.N > maxData {
			return fmt.Errorf("%w: read of %d bytes at offset %d (payload cap %d)",
				vfs.ErrInvalid, req.N, req.Off, maxData)
		}
	case muxns.NSWrite:
		if req.Off < 0 || int64(len(req.Data)) > maxData {
			return fmt.Errorf("%w: write of %d bytes at offset %d (payload cap %d)",
				vfs.ErrInvalid, len(req.Data), req.Off, maxData)
		}
	case muxns.NSTruncate, muxns.NSTruncateHandle:
		if req.N < 0 {
			return fmt.Errorf("%w: truncate to negative size %d", vfs.ErrInvalid, req.N)
		}
	case muxns.NSPunch:
		if req.Off < 0 || req.N < 0 {
			return fmt.Errorf("%w: punch of %d bytes at offset %d", vfs.ErrInvalid, req.N, req.Off)
		}
	case muxns.NSBatch:
		// The frame reader has already refused a batch over MaxBatch.
		var total int64
		for i := range req.Batch {
			b := &req.Batch[i]
			switch b.Op {
			case muxns.NSRead:
				if b.Off < 0 || b.N < 0 || b.N > maxData {
					return fmt.Errorf("%w: batch read sub-op of %d bytes at offset %d (payload cap %d)",
						vfs.ErrInvalid, b.N, b.Off, maxData)
				}
				total += b.N
			case muxns.NSWrite:
				if b.Off < 0 || int64(len(b.Data)) > maxData {
					return fmt.Errorf("%w: batch write sub-op of %d bytes at offset %d (payload cap %d)",
						vfs.ErrInvalid, len(b.Data), b.Off, maxData)
				}
				total += int64(len(b.Data))
			}
			// Sub-ops of any other kind answer per-sub-op errors in
			// serveBatch; they carry no payload worth charging here.
			if total > maxData {
				return fmt.Errorf("%w: batch payload sum exceeds cap %d", vfs.ErrInvalid, maxData)
			}
		}
	}
	return nil
}

// costOf charges a request by frame plus payload volume.
func costOf(req *muxns.NSRequest) int64 {
	var payload int64
	switch req.Op {
	case muxns.NSRead:
		payload = req.N
	case muxns.NSWrite:
		payload = int64(len(req.Data))
	case muxns.NSBatch:
		for i := range req.Batch {
			if req.Batch[i].Op == muxns.NSRead {
				payload += req.Batch[i].N
			} else {
				payload += int64(len(req.Batch[i].Data))
			}
		}
	}
	if payload < 0 {
		payload = 0
	}
	return 1 + payload/costUnitBytes
}

// nsHandle is one open file with the path it was opened under (needed for
// cache invalidation on handle-level mutations).
type nsHandle struct {
	f    vfs.File
	path string
}

// conn is one client connection: its frame stream, its open handles, and
// its scheduler queue. Handles die with the connection — the read loop's
// teardown closes them — so a vanished client cannot leak server state.
type conn struct {
	srv *Server
	nc  net.Conn

	wmu sync.Mutex // serializes reply frames
	fw  *muxns.NSFrameWriter

	cq *clientQ

	// executing counts this connection's tasks currently inside workers;
	// teardown waits for it to reach zero before reaping handles.
	executing atomic.Int64

	mu      sync.Mutex
	handles map[uint64]nsHandle
	nextH   uint64
}

// reply sends t's response frame, then releases t and the pooled buffers
// it holds — only now, with the frame flushed, can they be reused. A write
// failure kills the connection (the stream is unrecoverable mid-frame).
func (c *conn) reply(t *task) {
	t.resp.Seq, t.resp.Op = t.req.Seq, t.req.Op
	c.wmu.Lock()
	err := c.fw.WriteResponse(&t.resp)
	c.wmu.Unlock()
	if err != nil {
		c.nc.Close()
	}
	t.release()
}

// readLoop decodes frames, runs admission, and hands tasks to the worker
// pool. Write payloads are read off the wire straight into pooled buffers
// owned by the task. The loop exits (and tears the connection down) on the
// first stream or frame error — including a frame whose declared length
// exceeds the frame cap, which the frame layer rejects before reading it. A
// batch over MaxBatch is the one decode error the loop survives: the frame
// layer refuses it from its count and skips its body, and it is answered
// ErrInvalid like any request validate rejects.
func (c *conn) readLoop() {
	defer c.teardown()
	fr := muxns.NewNSFrameReader(c.nc, c.srv.opts.MaxData+muxns.NSFrameSlack)
	fr.SetMaxBatch(c.srv.opts.MaxBatch)
	if !c.hello(fr) {
		return
	}
	for {
		t := newTask(c)
		err := fr.ReadRequest(&t.req, t.buf)
		if err != nil && !errors.Is(err, muxns.ErrBatchTooBig) {
			if errors.Is(err, muxns.ErrFrameTooBig) {
				c.srv.rejectedFrame.Add(1)
			}
			return
		}
		c.srv.requests.Add(1)
		if err == nil {
			err = c.srv.validate(&t.req)
		}
		if err != nil {
			c.srv.rejectedInvalid.Add(1)
			t.fail(err)
			c.reply(t)
			continue
		}
		t.cost = costOf(&t.req)
		if retry, rated, ok := c.srv.sched.submit(c.cq, t); !ok {
			if rated {
				c.srv.rejectedRate.Add(1)
			} else {
				c.srv.rejectedQueue.Add(1)
			}
			ms := retry.Milliseconds()
			if ms < 1 {
				ms = 1
			}
			t.fail(muxns.ErrBusy)
			t.resp.RetryAfterMs = ms
			c.reply(t)
		}
	}
}

// hello runs the handshake inline, before admission control: it is the one
// frame a client may always send. A first frame that is not a hello of
// this protocol version — a v2 peer's gob frame does not even parse as one
// — gets the version-mismatch error, and the connection closes.
func (c *conn) hello(fr *muxns.NSFrameReader) bool {
	t := newTask(c)
	err := fr.ReadRequest(&t.req, nil)
	switch {
	case errors.Is(err, muxns.ErrFrameTooBig):
		c.srv.rejectedFrame.Add(1)
		return false
	case err != nil && !errors.Is(err, muxns.ErrBadFrame) && !errors.Is(err, muxns.ErrBatchTooBig):
		return false // the stream died
	case err != nil || t.req.Op != muxns.NSHello || t.req.N != muxns.NSProtoVersion:
		t.req.Op = muxns.NSHello
		t.fail(fmt.Errorf("muxns: protocol version mismatch (server speaks %d)", muxns.NSProtoVersion))
		c.reply(t)
		return false
	}
	t.resp = muxns.NSResponse{
		ServerName: c.srv.fs.Name(),
		MaxBatch:   c.srv.opts.MaxBatch,
		MaxData:    c.srv.opts.MaxData,
	}
	c.reply(t)
	return true
}

// teardown reaps everything the connection owned: queued tasks, open
// handles, and its slot in the connection table.
func (c *conn) teardown() {
	c.nc.Close()
	c.srv.sched.dropClient(c.cq)
	// Tasks already claimed by workers may still be touching this
	// connection's handles; closing files under them would race. Wait for
	// the connection to go quiescent (the ops finish and their replies
	// fail harmlessly against the closed socket).
	for c.executing.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	handles := c.handles
	c.handles = map[uint64]nsHandle{}
	c.mu.Unlock()
	for _, h := range handles {
		h.f.Close()
		c.srv.handles.Add(-1)
	}
	c.srv.connMu.Lock()
	delete(c.srv.conns, c)
	c.srv.connMu.Unlock()
}

func (c *conn) track(f vfs.File, path string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextH++
	c.handles[c.nextH] = nsHandle{f: f, path: path}
	c.srv.handles.Add(1)
	return c.nextH
}

func (c *conn) handle(id uint64) (nsHandle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.handles[id]
	if !ok {
		return nsHandle{}, vfs.ErrClosed
	}
	return h, nil
}

func isNotExist(err error) bool { return errors.Is(err, vfs.ErrNotExist) }

// serve executes one admitted request against the file system, filling
// t's reply.
func (s *Server) serve(t *task) {
	var start time.Time
	op := t.req.Op
	timed := s.tel != nil && s.tel.Enabled() && int(op) < len(s.opNs)
	if timed {
		start = time.Now()
	}
	if err := s.dispatch(t); err != nil {
		t.fail(err)
	}
	if timed {
		s.opNs[op].Record(time.Since(start).Nanoseconds())
	}
}

func (s *Server) dispatch(t *task) error {
	c, req, resp := t.c, &t.req, &t.resp
	switch req.Op {
	case muxns.NSOpen:
		f, err := s.fs.Open(req.Path)
		if err != nil {
			return err
		}
		resp.Handle = c.track(f, vfs.CleanPath(req.Path))
	case muxns.NSCreate:
		f, err := s.fs.Create(req.Path)
		if err != nil {
			return err
		}
		s.invalidate(req.Path)
		resp.Handle = c.track(f, vfs.CleanPath(req.Path))
	case muxns.NSClose:
		c.mu.Lock()
		h, ok := c.handles[req.Handle]
		delete(c.handles, req.Handle)
		c.mu.Unlock()
		if !ok {
			return vfs.ErrClosed
		}
		s.handles.Add(-1)
		if err := h.f.Close(); err != nil {
			return err
		}
	case muxns.NSRead:
		h, err := c.handle(req.Handle)
		if err != nil {
			return err
		}
		buf := t.buf(int(req.N))
		n, err := h.f.ReadAt(buf, req.Off)
		resp.Data = buf[:n]
		s.bytesRead.Add(int64(n))
		if errors.Is(err, io.EOF) {
			resp.EOF = true
			err = nil
		}
		if err != nil {
			return err
		}
	case muxns.NSWrite:
		h, err := c.handle(req.Handle)
		if err != nil {
			return err
		}
		n, err := h.f.WriteAt(req.Data, req.Off)
		resp.N = int64(n)
		s.bytesWritten.Add(int64(n))
		s.invalidate(h.path)
		if err != nil {
			return err
		}
	case muxns.NSTruncateHandle:
		h, err := c.handle(req.Handle)
		if err != nil {
			return err
		}
		// Mutations invalidate AFTER executing (here and below): an
		// invalidate-then-mutate order would let a concurrent stat re-cache
		// the pre-mutation result inside the window and serve it stale for
		// a whole TTL. The fill path guards the other half of the race with
		// the cache's generation counters.
		terr := h.f.Truncate(req.N)
		s.invalidate(h.path)
		if terr != nil {
			return terr
		}
	case muxns.NSPunch:
		h, err := c.handle(req.Handle)
		if err != nil {
			return err
		}
		perr := h.f.PunchHole(req.Off, req.N)
		s.invalidate(h.path)
		if perr != nil {
			return perr
		}
	case muxns.NSSyncHandle:
		h, err := c.handle(req.Handle)
		if err != nil {
			return err
		}
		if err := h.f.Sync(); err != nil {
			return err
		}
	case muxns.NSStatHandle:
		h, err := c.handle(req.Handle)
		if err != nil {
			return err
		}
		fi, err := h.f.Stat()
		if err != nil {
			return err
		}
		resp.Info = fi
	case muxns.NSExtents:
		h, err := c.handle(req.Handle)
		if err != nil {
			return err
		}
		exts, err := h.f.Extents()
		if err != nil {
			return err
		}
		resp.Extents = exts
	case muxns.NSStat:
		path := vfs.CleanPath(req.Path)
		if s.cache != nil {
			if fi, cerr, ok := s.cache.getStat(path); ok {
				if cerr != nil {
					return cerr
				}
				resp.Info = fi
				return nil
			}
		}
		var gen uint64
		if s.cache != nil {
			gen = s.cache.gen(path)
		}
		fi, err := s.fs.Stat(path)
		if s.cache != nil {
			s.cache.putStat(path, fi, err, gen)
		}
		if err != nil {
			return err
		}
		resp.Info = fi
	case muxns.NSReadDir:
		path := vfs.CleanPath(req.Path)
		if s.cache != nil {
			if ents, cerr, ok := s.cache.getDir(path); ok {
				if cerr != nil {
					return cerr
				}
				resp.Entries = ents
				return nil
			}
		}
		var gen uint64
		if s.cache != nil {
			gen = s.cache.gen(path)
		}
		ents, err := s.fs.ReadDir(path)
		if s.cache != nil {
			s.cache.putDir(path, ents, err, gen)
		}
		if err != nil {
			return err
		}
		resp.Entries = ents
	case muxns.NSSetAttr:
		err := s.fs.SetAttr(req.Path, req.Attr.ToSetAttr())
		s.invalidate(req.Path)
		if err != nil {
			return err
		}
	case muxns.NSTruncate:
		err := s.fs.Truncate(req.Path, req.N)
		s.invalidate(req.Path)
		if err != nil {
			return err
		}
	case muxns.NSRename:
		err := s.fs.Rename(req.Path, req.Path2)
		s.invalidateTree(req.Path)
		s.invalidateTree(req.Path2)
		if err != nil {
			return err
		}
	case muxns.NSRemove:
		err := s.fs.Remove(req.Path)
		s.invalidateTree(req.Path)
		if err != nil {
			return err
		}
	case muxns.NSMkdir:
		err := s.fs.Mkdir(req.Path)
		s.invalidate(req.Path)
		if err != nil {
			return err
		}
	case muxns.NSStatfs:
		st, err := s.fs.Statfs()
		if err != nil {
			return err
		}
		resp.Stat = st
	case muxns.NSSync:
		if err := s.fs.Sync(); err != nil {
			return err
		}
	case muxns.NSBatch:
		resp.Batch = s.serveBatch(t)
	default:
		return fmt.Errorf("%w: muxns op %d", vfs.ErrInvalid, req.Op)
	}
	return nil
}

func (s *Server) invalidate(path string) {
	if s.cache != nil {
		s.cache.invalidate(path)
	}
}

func (s *Server) invalidateTree(path string) {
	if s.cache != nil {
		s.cache.invalidatePrefix(path)
	}
}

// Stats is a point-in-time snapshot of the server counters; Collect
// exports it on /metrics.
type Stats struct {
	Name    string `json:"name"`
	Conns   int    `json:"conns"`
	Workers int    `json:"workers"`

	QueueDepth int   `json:"queue_depth"`
	MaxQueue   int   `json:"max_queue"`
	Executing  int64 `json:"executing"`

	ConnsAccepted   int64 `json:"conns_accepted"`
	Requests        int64 `json:"requests"`
	RejectedQueue   int64 `json:"rejected_queue"`
	RejectedRate    int64 `json:"rejected_rate"`
	RejectedInvalid int64 `json:"rejected_invalid"`
	RejectedFrame   int64 `json:"rejected_frame"`

	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheNegHits int64 `json:"cache_neg_hits"`
	CacheEvicts  int64 `json:"cache_evicts"`
	CacheEntries int64 `json:"cache_entries"`

	BatchSubOps     int64 `json:"batch_subops"`
	BatchDispatches int64 `json:"batch_dispatches"`
	BatchSaved      int64 `json:"batch_saved"`

	HandlesOpen int64 `json:"handles_open"`
}

// ClientStats describes one connected client for status surfaces
// (muxsh 'clients', operator tooling).
type ClientStats struct {
	Addr      string  `json:"addr"`
	Queued    int     `json:"queued"`
	Executing int64   `json:"executing"`
	Handles   int     `json:"handles"`
	Tokens    float64 `json:"tokens"` // remaining token-bucket budget, cost units
}

// Clients snapshots every live connection, sorted by remote address.
func (s *Server) Clients() []ClientStats {
	s.connMu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	out := make([]ClientStats, 0, len(conns))
	for _, c := range conns {
		st := ClientStats{Addr: c.nc.RemoteAddr().String(), Executing: c.executing.Load()}
		s.sched.mu.Lock()
		st.Queued = len(c.cq.q)
		st.Tokens = c.cq.tokens
		s.sched.mu.Unlock()
		c.mu.Lock()
		st.Handles = len(c.handles)
		c.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	s.connMu.Lock()
	nconns := len(s.conns)
	s.connMu.Unlock()
	st := Stats{
		Name:            s.fs.Name(),
		Conns:           nconns,
		Workers:         s.opts.Workers,
		QueueDepth:      s.sched.depth(),
		MaxQueue:        s.opts.MaxQueue,
		Executing:       s.executing.Load(),
		ConnsAccepted:   s.accepted.Load(),
		Requests:        s.requests.Load(),
		RejectedQueue:   s.rejectedQueue.Load(),
		RejectedRate:    s.rejectedRate.Load(),
		RejectedInvalid: s.rejectedInvalid.Load(),
		RejectedFrame:   s.rejectedFrame.Load(),
		BytesRead:       s.bytesRead.Load(),
		BytesWritten:    s.bytesWritten.Load(),
		BatchSubOps:     s.batchSubOps.Load(),
		BatchDispatches: s.batchDisp.Load(),
		BatchSaved:      s.batchSaved.Load(),
		HandlesOpen:     s.handles.Load(),
	}
	if s.cache != nil {
		st.CacheHits, st.CacheMisses, st.CacheNegHits, st.CacheEvicts, st.CacheEntries = s.cache.counters()
	}
	return st
}

// Collect emits Stats as the mux_server_* families.
func (s *Server) Collect() []telemetry.FamilySnapshot {
	st := s.Stats()
	c, g, v := telemetry.CounterFamily, telemetry.GaugeFamily, telemetry.Sample
	return []telemetry.FamilySnapshot{
		g("mux_server_conns", "Open namespace-server connections.", v(int64(st.Conns))),
		c("mux_server_conns_accepted_total", "Namespace-server connections accepted.", v(st.ConnsAccepted)),
		g("mux_server_workers", "Namespace-server worker-pool width.", v(int64(st.Workers))),
		g("mux_server_queue_depth", "Admitted requests waiting for a worker.", v(int64(st.QueueDepth))),
		g("mux_server_queue_max", "Admission high watermark.", v(int64(st.MaxQueue))),
		g("mux_server_executing", "Requests currently inside workers.", v(st.Executing)),
		c("mux_server_requests_total", "Namespace-server requests received.", v(st.Requests)),
		c("mux_server_rejected_queue_total", "Requests rejected busy: queue past high watermark.", v(st.RejectedQueue)),
		c("mux_server_rejected_rate_total", "Requests rejected busy: client over its rate budget.", v(st.RejectedRate)),
		c("mux_server_rejected_invalid_total", "Requests rejected at admission: malformed or over the payload cap.", v(st.RejectedInvalid)),
		c("mux_server_rejected_frame_total", "Connections killed for an over-cap wire frame.", v(st.RejectedFrame)),
		c("mux_server_bytes_read_total", "Bytes served by namespace-server reads.", v(st.BytesRead)),
		c("mux_server_bytes_written_total", "Bytes accepted by namespace-server writes.", v(st.BytesWritten)),
		c("mux_server_cache_hits_total", "Attr/readdir cache hits (negative hits included).", v(st.CacheHits)),
		c("mux_server_cache_misses_total", "Attr/readdir cache misses.", v(st.CacheMisses)),
		c("mux_server_cache_neg_hits_total", "Attr/readdir negative-entry hits.", v(st.CacheNegHits)),
		c("mux_server_cache_evictions_total", "Attr/readdir cache LRU evictions.", v(st.CacheEvicts)),
		g("mux_server_cache_entries", "Live attr/readdir cache entries.", v(st.CacheEntries)),
		c("mux_server_batch_subops_total", "Batched sub-operations received.", v(st.BatchSubOps)),
		c("mux_server_batch_dispatches_total", "Downward dispatches issued for batched sub-ops.", v(st.BatchDispatches)),
		c("mux_server_batch_saved_total", "Downward dispatches avoided by coalescing.", v(st.BatchSaved)),
		g("mux_server_handles_open", "Open handles across all namespace-server connections.", v(st.HandlesOpen)),
	}
}
