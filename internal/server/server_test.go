package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/fstest"
	"muxfs/internal/muxns"
	"muxfs/internal/muxrpc"
	"muxfs/internal/server"
	"muxfs/internal/simclock"
	"muxfs/internal/telemetry"
	"muxfs/internal/vfs"
)

func newBackFS(t *testing.T) vfs.FileSystem {
	t.Helper()
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := xfslite.New("xfs@srv", dev)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// start serves fs on a loopback listener and returns the address, server,
// and listener (for tests that sever it).
func start(t *testing.T, fs vfs.FileSystem, opts server.Options) (string, *server.Server, net.Listener) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(fs, opts)
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	return l.Addr().String(), srv, l
}

func dial(t *testing.T, addr string, opts muxrpc.NSDialOptions) *muxrpc.NSClient {
	t.Helper()
	c, err := muxrpc.NSDialOpts("tcp", addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConformance runs the full VFS contract through the namespace front
// end: NSClient → admission/DRR/cache/batching server → xfslite. The
// remote namespace must be indistinguishable from a local file system.
func TestConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		addr, _, _ := start(t, newBackFS(t), server.Options{})
		return dial(t, addr, muxrpc.NSDialOptions{})
	})
}

func TestConcurrency(t *testing.T) {
	fstest.RunConcurrency(t, func(t *testing.T) vfs.FileSystem {
		addr, _, _ := start(t, newBackFS(t), server.Options{})
		return dial(t, addr, muxrpc.NSDialOptions{PoolSize: 2})
	})
}

func TestHello(t *testing.T) {
	addr, _, _ := start(t, newBackFS(t), server.Options{MaxBatch: 99, MaxData: 128 << 10})
	c := dial(t, addr, muxrpc.NSDialOptions{})
	if c.Name() != "muxns:xfs@srv" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.MaxBatch() != 99 {
		t.Fatalf("MaxBatch = %d", c.MaxBatch())
	}
	if c.MaxData() != 128<<10 {
		t.Fatalf("MaxData = %d", c.MaxData())
	}
}

// rawConn speaks the muxns wire by hand, so tests can ship frames NSClient
// would never produce — negative lengths, over-cap payloads.
type rawConn struct {
	nc net.Conn
	fw *muxns.NSFrameWriter
	fr *muxns.NSFrameReader
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	rc := &rawConn{
		nc: nc,
		fw: muxns.NewNSFrameWriter(nc),
		fr: muxns.NewNSFrameReader(nc, 64<<20),
	}
	if resp := rc.call(t, &muxns.NSRequest{Seq: 1, Op: muxns.NSHello, N: muxns.NSProtoVersion}); resp.Err() != nil {
		t.Fatalf("hello: %v", resp.Err())
	}
	return rc
}

func (rc *rawConn) call(t *testing.T, req *muxns.NSRequest) *muxns.NSResponse {
	t.Helper()
	if err := rc.fw.WriteRequest(req); err != nil {
		t.Fatalf("encode: %v", err)
	}
	resp := &muxns.NSResponse{}
	if err := rc.fr.ReadResponse(resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp
}

// TestWireValidation ships hand-built hostile frames — negative read
// lengths, absurd sizes, negative offsets — and checks each is answered
// with ErrInvalid at admission instead of panicking a worker, with the
// connection (and server) alive afterwards.
func TestWireValidation(t *testing.T) {
	addr, srv, _ := start(t, newBackFS(t), server.Options{})
	rc := rawDial(t, addr)

	hostile := []*muxns.NSRequest{
		{Seq: 2, Op: muxns.NSRead, Handle: 1, N: -1},
		{Seq: 3, Op: muxns.NSRead, Handle: 1, N: 1 << 50},
		{Seq: 4, Op: muxns.NSRead, Handle: 1, Off: -8, N: 16},
		{Seq: 5, Op: muxns.NSWrite, Handle: 1, Off: -8, Data: []byte("x")},
		{Seq: 6, Op: muxns.NSTruncate, Path: "/x", N: -2},
		{Seq: 7, Op: muxns.NSPunch, Handle: 1, Off: 0, N: -4096},
		{Seq: 8, Op: muxns.NSBatch, Batch: []muxns.NSSubOp{
			{ID: 0, Op: muxns.NSRead, Handle: 1, N: -5},
		}},
		{Seq: 9, Op: muxns.NSBatch, Batch: []muxns.NSSubOp{
			{ID: 0, Op: muxns.NSRead, Handle: 1, N: 1 << 40},
		}},
	}
	for _, req := range hostile {
		resp := rc.call(t, req)
		if !errors.Is(resp.Err(), vfs.ErrInvalid) {
			t.Fatalf("seq %d (%s): got %v, want ErrInvalid", req.Seq, req.Op, resp.Err())
		}
	}
	if got := srv.Stats().RejectedInvalid; got != int64(len(hostile)) {
		t.Fatalf("RejectedInvalid = %d, want %d", got, len(hostile))
	}
	// The connection survived every rejection: a well-formed op still works.
	if resp := rc.call(t, &muxns.NSRequest{Seq: 10, Op: muxns.NSStat, Path: "/"}); resp.Err() != nil {
		t.Fatalf("stat after rejections: %v", resp.Err())
	}
}

// TestFrameCapKillsConnection declares a frame bigger than the server's
// cap and checks the connection dies from the 4-byte header alone — the
// payload is never read into memory.
func TestFrameCapKillsConnection(t *testing.T) {
	addr, srv, _ := start(t, newBackFS(t), server.Options{})
	rc := rawDial(t, addr)

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 512<<20) // 512MiB >> default cap
	if _, err := rc.nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rc.nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived an over-cap frame")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().RejectedFrame == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Stats().RejectedFrame == 0 {
		t.Fatal("RejectedFrame not counted")
	}
}

// TestLargeIOChunked checks reads and writes past the negotiated payload
// cap chunk transparently client-side instead of being rejected.
func TestLargeIOChunked(t *testing.T) {
	addr, _, _ := start(t, newBackFS(t), server.Options{MaxData: 64 << 10})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	data := make([]byte, 300<<10) // 4 full chunks + a partial one
	for i := range data {
		data[i] = byte(i * 13)
	}
	f, err := c.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.WriteAt(data, 0)
	if err != nil || n != len(data) {
		t.Fatalf("chunked write: n=%d err=%v", n, err)
	}
	got := make([]byte, len(data))
	n, err = f.ReadAt(got, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("chunked read: %v", err)
	}
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("chunked read: n=%d, data mismatch", n)
	}
}

// gateFS blocks selected operations on a channel so tests can hold
// requests in flight deterministically.
type gateFS struct {
	vfs.FileSystem
	mu sync.Mutex
	ch chan struct{}
}

// arm makes subsequent gated ops block until release.
func (g *gateFS) arm() {
	g.mu.Lock()
	g.ch = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateFS) release() {
	g.mu.Lock()
	ch := g.ch
	g.ch = nil
	g.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

func (g *gateFS) wait() {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

func (g *gateFS) Open(path string) (vfs.File, error) {
	f, err := g.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

func (g *gateFS) Create(path string) (vfs.File, error) {
	f, err := g.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

func (g *gateFS) Rename(oldPath, newPath string) error {
	g.wait()
	return g.FileSystem.Rename(oldPath, newPath)
}

type gateFile struct {
	vfs.File
	g *gateFS
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	f.g.wait()
	return f.File.ReadAt(p, off)
}

func (f *gateFile) WriteAt(p []byte, off int64) (int, error) {
	f.g.wait()
	return f.File.WriteAt(p, off)
}

// TestQueueBackpressure fills the bounded queue with gated reads and
// checks the next request is rejected busy (typed, with a retry hint)
// instead of queueing without bound.
func TestQueueBackpressure(t *testing.T) {
	g := &gateFS{FileSystem: newBackFS(t)}
	addr, _, _ := start(t, g, server.Options{Workers: 2, MaxQueue: 4})
	c := dial(t, addr, muxrpc.NSDialOptions{BusyRetries: -1})

	f, err := c.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{7}, 4096), 0); err != nil {
		t.Fatal(err)
	}

	g.arm()
	defer g.release()
	// 2 reads occupy both workers; 4 fill the queue; the rest must bounce.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16)
			_, err := f.ReadAt(buf, 0)
			errs <- err
		}()
	}
	// Busy rejections return quickly; gated reads stay blocked.
	var busy int
	timeout := time.After(5 * time.Second)
	for busy == 0 {
		select {
		case err := <-errs:
			if !errors.Is(err, muxns.ErrBusy) {
				t.Fatalf("expected ErrBusy, got %v", err)
			}
			var be *muxns.BusyError
			if !errors.As(err, &be) || be.RetryAfter <= 0 {
				t.Fatalf("busy error carries no retry hint: %v", err)
			}
			busy++
		case <-timeout:
			t.Fatal("no busy rejection arrived")
		}
	}
	g.release()
	wg.Wait()
}

// TestRateLimitAndRecovery drives one client past its token bucket: with
// retries disabled the rejection surfaces as ErrBusy; with retries on, the
// same workload completes (the client sleeps out the hint).
func TestRateLimitAndRecovery(t *testing.T) {
	fs := newBackFS(t)
	// 64 units/s, burst 64: ~2MiB of payload then hard throttle.
	addr, srv, _ := start(t, fs, server.Options{RatePerClient: 64, Burst: 64})

	c := dial(t, addr, muxrpc.NSDialOptions{BusyRetries: -1})
	f, err := c.Create("/r")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 256<<10) // 8 units + 1 per write
	var sawBusy bool
	for i := 0; i < 32; i++ {
		if _, err := f.WriteAt(payload, 0); err != nil {
			if !errors.Is(err, muxns.ErrBusy) {
				t.Fatalf("expected ErrBusy, got %v", err)
			}
			sawBusy = true
			break
		}
	}
	if !sawBusy {
		t.Fatal("rate limiter never rejected")
	}
	if srv.Stats().RejectedRate == 0 {
		t.Fatal("RejectedRate counter not incremented")
	}

	// A retrying client rides through the throttle.
	c2 := dial(t, addr, muxrpc.NSDialOptions{BusyRetries: 100})
	f2, err := c2.Create("/r2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := f2.WriteAt(payload, 0); err != nil {
			t.Fatalf("retrying client failed: %v", err)
		}
	}
}

// TestAttrCache checks hit/negative-hit accounting and exact invalidation
// on server-served mutations.
func TestAttrCache(t *testing.T) {
	fs := newBackFS(t)
	addr, srv, _ := start(t, fs, server.Options{CacheTTL: time.Hour}) // TTL out of the picture
	c := dial(t, addr, muxrpc.NSDialOptions{})

	f, err := c.Create("/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("xyz"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Stat("/a"); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.CacheHits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", st.CacheHits)
	}

	// Negative caching: repeated stats of a missing path hit the cache.
	for i := 0; i < 3; i++ {
		if _, err := c.Stat("/missing"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("stat /missing: %v", err)
		}
	}
	if st := srv.Stats(); st.CacheNegHits < 2 {
		t.Fatalf("negative hits = %d, want >= 2", st.CacheNegHits)
	}

	// A write through the server invalidates the cached attr: the next
	// stat must see the new size, not the cached one.
	if _, err := f.WriteAt(bytes.Repeat([]byte{2}, 100), 0); err != nil {
		t.Fatal(err)
	}
	fi, err := c.Stat("/a")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 100 {
		t.Fatalf("stat after write: size %d, want 100 (stale cache?)", fi.Size)
	}

	// Creating a file invalidates the parent listing; the new entry must
	// appear even though the listing was cached.
	if _, err := c.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/b"); err != nil {
		t.Fatal(err)
	}
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ents {
		if e.Name == "b" {
			found = true
		}
	}
	if !found {
		t.Fatal("readdir after create missed the new entry (stale cache?)")
	}

	// Creating a previously negative-cached path clears the negative
	// entry.
	if _, err := c.Create("/missing"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/missing"); err != nil {
		t.Fatalf("stat after create of negative-cached path: %v", err)
	}
}

// statGate lets a Stat read the backing namespace and then blocks it
// BEFORE it returns to the server — modelling a cache fill that raced a
// mutation: the stat's answer predates the mutation, but its cache
// insert happens after the mutation's invalidate.
type statGate struct {
	vfs.FileSystem
	mu      sync.Mutex
	ch      chan struct{}
	entered chan struct{}
}

func (g *statGate) arm() {
	g.mu.Lock()
	g.ch = make(chan struct{})
	g.entered = make(chan struct{}, 1)
	g.mu.Unlock()
}

func (g *statGate) release() {
	g.mu.Lock()
	ch := g.ch
	g.ch = nil
	g.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

func (g *statGate) Stat(path string) (vfs.FileInfo, error) {
	fi, err := g.FileSystem.Stat(path)
	g.mu.Lock()
	ch, entered := g.ch, g.entered
	g.mu.Unlock()
	if ch != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-ch
	}
	return fi, err
}

// TestStatFillRaceInvalidation is the regression test for the
// invalidate-vs-fill race: a stat reads pre-mutation state, the mutation
// completes and invalidates, and only then does the stat's result reach
// the cache. The generation guard must discard that fill — otherwise the
// stale size would be served for a whole TTL, breaking same-server
// write-through consistency.
func TestStatFillRaceInvalidation(t *testing.T) {
	g := &statGate{FileSystem: newBackFS(t)}
	addr, _, _ := start(t, g, server.Options{CacheTTL: time.Hour})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	f, err := c.Create("/f")
	if err != nil {
		t.Fatal(err)
	}

	g.arm()
	statDone := make(chan struct{})
	go func() {
		defer close(statDone)
		c.Stat("/f") // reads size 0, then parks inside the gate
	}()
	// Wait until the stat has read the (pre-write) answer and is gated.
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("stat never reached the gate")
	}

	// The mutation lands — and invalidates — while the stale fill is
	// still in flight.
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	g.release()
	<-statDone

	fi, err := c.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 5 {
		t.Fatalf("stat after racing fill: size %d, want 5 (stale fill cached?)", fi.Size)
	}
}

// TestClientMetaRace hammers the hello-negotiated client metadata from
// reader goroutines while lazy pool slots dial and write it; -race is the
// assertion.
func TestClientMetaRace(t *testing.T) {
	addr, _, _ := start(t, newBackFS(t), server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{PoolSize: 4})
	if _, err := c.Create("/meta"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Name()
					_ = c.MaxBatch()
					_ = c.MaxData()
				}
			}
		}()
	}
	// Opens round-robin the pool, forcing the remaining slots' first
	// dials (which rewrite name/maxBatch/maxData) under the readers.
	for i := 0; i < 16; i++ {
		f, err := c.Open("/meta")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	close(stop)
	wg.Wait()
}

// TestCacheTreeInvalidation renames a directory and checks cached
// descendants go stale with it.
func TestCacheTreeInvalidation(t *testing.T) {
	fs := newBackFS(t)
	addr, _, _ := start(t, fs, server.Options{CacheTTL: time.Hour})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("/d/x")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := c.Stat("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/d", "/e"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/d/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stat of old path after dir rename: %v (stale cache?)", err)
	}
	if _, err := c.Stat("/e/x"); err != nil {
		t.Fatalf("stat of new path after dir rename: %v", err)
	}
}

// TestBatchReads checks coalescing correctness: adjacent and overlapping
// sub-reads merge into fewer dispatches, every sub-op still gets exactly
// its bytes, and reads past EOF report EOF per sub-op.
func TestBatchReads(t *testing.T) {
	fs := newBackFS(t)
	addr, srv, _ := start(t, fs, server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	f0, err := c.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f0.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	f := f0.(*muxrpc.NSFile)

	ops := []muxrpc.NSBatchOp{
		{File: f, Read: true, Off: 0, N: 4096},
		{File: f, Read: true, Off: 4096, N: 4096},     // adjacent: merges
		{File: f, Read: true, Off: 6000, N: 4096},     // overlaps: merges
		{File: f, Read: true, Off: 40 << 10, N: 1024}, // distant: own dispatch
		{File: f, Read: true, Off: 63 << 10, N: 4096}, // crosses EOF
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if res[i].Err != nil {
			t.Fatalf("sub %d: %v", i, res[i].Err)
		}
		want := data[op.Off:min64(op.Off+int64(op.N), int64(len(data)))]
		if !bytes.Equal(res[i].Data, want) {
			t.Fatalf("sub %d: got %d bytes, mismatch", i, len(res[i].Data))
		}
	}
	if !res[0].Coalesced || !res[1].Coalesced || !res[2].Coalesced {
		t.Fatal("adjacent reads not marked coalesced")
	}
	if res[3].Coalesced {
		t.Fatal("distant read wrongly coalesced")
	}
	if !res[4].EOF {
		t.Fatal("read crossing EOF lost its EOF flag")
	}
	st := srv.Stats()
	if st.BatchSaved < 2 {
		t.Fatalf("BatchSaved = %d, want >= 2", st.BatchSaved)
	}
	if st.BatchDispatches >= st.BatchSubOps {
		t.Fatalf("no dispatch saving: %d dispatches for %d sub-ops", st.BatchDispatches, st.BatchSubOps)
	}
}

// TestBatchWrites checks exactly-adjacent writes merge into one dispatch
// and land correctly.
func TestBatchWrites(t *testing.T) {
	fs := newBackFS(t)
	addr, srv, _ := start(t, fs, server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	f0, err := c.Create("/w")
	if err != nil {
		t.Fatal(err)
	}
	f := f0.(*muxrpc.NSFile)
	chunk := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	ops := []muxrpc.NSBatchOp{
		{File: f, Off: 0, Data: chunk(1, 1000)},
		{File: f, Off: 1000, Data: chunk(2, 1000)}, // abuts: merges
		{File: f, Off: 2000, Data: chunk(3, 1000)}, // abuts: merges
		{File: f, Off: 5000, Data: chunk(4, 1000)}, // gap: own dispatch
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("sub %d: %v", i, res[i].Err)
		}
		if res[i].N != 1000 {
			t.Fatalf("sub %d: wrote %d", i, res[i].N)
		}
	}
	if !res[0].Coalesced || res[3].Coalesced {
		t.Fatal("write coalescing flags wrong")
	}
	buf := make([]byte, 3000)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		want := byte(1 + i/1000)
		if b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
	if srv.Stats().BatchSaved < 2 {
		t.Fatalf("BatchSaved = %d", srv.Stats().BatchSaved)
	}
}

// TestDrainUnderLoad holds requests in flight, severs the listener, and
// checks Drain waits for them rather than cutting mid-call.
func TestDrainUnderLoad(t *testing.T) {
	g := &gateFS{FileSystem: newBackFS(t)}
	addr, srv, l := start(t, g, server.Options{Workers: 4})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	f, err := c.Create("/d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}

	g.arm()
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			buf := make([]byte, 5)
			_, err := f.ReadAt(buf, 0)
			done <- err
		}()
	}
	// Wait until the reads are in flight server-side.
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.InFlight() < 3 {
		t.Fatalf("reads never became in-flight: %d", srv.InFlight())
	}

	l.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		g.release()
	}()
	if cut := srv.Drain(5 * time.Second); cut != 0 {
		t.Fatalf("drain cut %d in-flight calls", cut)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("in-flight read failed during drain: %v", err)
		}
	}
}

// TestDrainReleasesServer checks Drain is terminal: once it returns and
// the client hangs up, every goroutine the server started — the worker
// pool and the connection read loops — has exited, so nothing still pins
// the served file system.
func TestDrainReleasesServer(t *testing.T) {
	fs := newBackFS(t)
	before := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(fs, server.Options{Workers: 4})
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(l)
	}()
	c, err := muxrpc.NSDialOpts("tcp", l.Addr().String(), muxrpc.NSDialOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("/g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}

	l.Close()
	<-served
	if cut := srv.Drain(time.Second); cut != 0 {
		t.Fatalf("drain cut %d in-flight calls", cut)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines outlive Drain (%d before New):\n%s", n-before, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestReconnectReopensHandles severs every connection mid-session and
// checks an idempotent read transparently redials, re-opens its handle by
// path, and succeeds.
func TestReconnectReopensHandles(t *testing.T) {
	fs := newBackFS(t)
	addr, srv, _ := start(t, fs, server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	f, err := c.Create("/p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("persist"), 0); err != nil {
		t.Fatal(err)
	}

	srv.Sever()

	buf := make([]byte, 7)
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		t.Fatalf("read after reconnect: %v", err)
	}
	if string(buf[:n]) != "persist" {
		t.Fatalf("read %q", buf[:n])
	}
	reconnects := int64(-1)
	for _, f := range c.Collect() {
		if f.Name == "mux_rpc_pool_reconnects_total" {
			reconnects = f.Series[0].Value
		}
	}
	if reconnects <= 0 {
		t.Fatalf("reconnects = %d, want the reconnect counted", reconnects)
	}
}

// TestSeverMidCallIdempotent blocks a read server-side, severs the
// connection, and checks the client retries it to success — the restart-
// mid-call path for safe ops.
func TestSeverMidCallIdempotent(t *testing.T) {
	g := &gateFS{FileSystem: newBackFS(t)}
	addr, srv, _ := start(t, g, server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	f, err := c.Create("/mid")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}

	g.arm()
	done := make(chan error, 1)
	var got []byte
	go func() {
		buf := make([]byte, 6)
		n, err := f.ReadAt(buf, 0)
		got = buf[:n]
		done <- err
	}()
	waitInFlight(t, srv, 1)
	srv.Sever() // cuts the connection with the read still gated
	g.release()
	if err := <-done; err != nil {
		t.Fatalf("idempotent read did not survive a severed connection: %v", err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("read %q", got)
	}
}

// TestSeverMidCallNonIdempotent blocks a rename server-side, severs the
// connection, and checks the client surfaces the typed non-idempotent
// error instead of silently replaying.
func TestSeverMidCallNonIdempotent(t *testing.T) {
	g := &gateFS{FileSystem: newBackFS(t)}
	addr, srv, _ := start(t, g, server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	f, err := c.Create("/n1")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	g.arm()
	done := make(chan error, 1)
	go func() { done <- c.Rename("/n1", "/n2") }()
	waitInFlight(t, srv, 1)
	srv.Sever()
	g.release()
	err = <-done
	if !errors.Is(err, muxns.ErrNonIdempotent) {
		t.Fatalf("rename cut mid-call: got %v, want ErrNonIdempotent", err)
	}
	var ne *muxns.NonIdempotentError
	if !errors.As(err, &ne) || ne.Method != "muxns.rename" {
		t.Fatalf("typed error missing method: %v", err)
	}
}

// TestBatchSeverMidCall blocks a batched read, severs the connection, and
// checks the whole batch retries to success on the new connection.
func TestBatchSeverMidCall(t *testing.T) {
	g := &gateFS{FileSystem: newBackFS(t)}
	addr, srv, _ := start(t, g, server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	f0, err := c.Create("/bm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f0.WriteAt(bytes.Repeat([]byte{9}, 8192), 0); err != nil {
		t.Fatal(err)
	}
	f := f0.(*muxrpc.NSFile)

	g.arm()
	done := make(chan error, 1)
	var res []muxrpc.NSBatchResult
	go func() {
		var err error
		res, err = c.Batch([]muxrpc.NSBatchOp{
			{File: f, Read: true, Off: 0, N: 4096},
			{File: f, Read: true, Off: 4096, N: 4096},
		})
		done <- err
	}()
	waitInFlight(t, srv, 1)
	srv.Sever()
	g.release()
	if err := <-done; err != nil {
		t.Fatalf("batch did not survive severed connection: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.N != 4096 {
			t.Fatalf("sub %d after retry: n=%d err=%v", i, r.N, r.Err)
		}
	}
}

// TestHandleReapOnDisconnect checks a vanished client's handles are closed
// server-side.
func TestHandleReapOnDisconnect(t *testing.T) {
	fs := newBackFS(t)
	addr, srv, _ := start(t, fs, server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{})

	for i := 0; i < 4; i++ {
		if _, err := c.Create(fmt.Sprintf("/h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().HandlesOpen; got != 4 {
		t.Fatalf("HandlesOpen = %d", got)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().HandlesOpen != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().HandlesOpen; got != 0 {
		t.Fatalf("handles leaked after disconnect: %d", got)
	}
}

func waitInFlight(t *testing.T, srv *server.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.InFlight() < n {
		t.Fatalf("in-flight never reached %d", n)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// v2Hello is a protocol-version-2 client's hello frame (a gob-encoded
// NSRequest{Seq: 1, Op: NSHello, N: 2} behind the 4-byte length prefix),
// captured from the last v2 build.
const v2Hello = "0000015f6f7f030101094e535265717565737401ff8000010a010353657101060001024f70010600010450617468010c0001055061746832010c00010648616e646c6501060001034f666601040001014e010400010444617461010a0001044174747201ff82000105426174636801ff860000007eff810301010b536574417474724172677301ff82000109010450617468010c00010748617353697a65010200010453697a6501040001074861734d6f646501020001044d6f6465010600010a4861734d6f6454696d6501020001074d6f6454696d6501040001084861734154696d6501020001054154696d6501040000001fff85020101105b5d6d75787270632e4e535375624f7001ff860001ff84000045ff83030101074e535375624f7001ff840001060102494401060001024f70010600010648616e646c6501060001034f666601040001014e010400010444617461010a00000009ff8001010604020000"

// TestHelloRejectsOtherVersions checks the handshake answers a v2 peer's
// gob hello and a v3-encoded hello carrying another version with the
// version-mismatch error, then closes the connection.
func TestHelloRejectsOtherVersions(t *testing.T) {
	addr, _, _ := start(t, newBackFS(t), server.Options{})
	v2, err := hex.DecodeString(v2Hello)
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := muxns.NewNSFrameWriter(&v3).WriteRequest(&muxns.NSRequest{Seq: 1, Op: muxns.NSHello, N: 2}); err != nil {
		t.Fatal(err)
	}
	for name, hello := range map[string][]byte{"v2 gob hello": v2, "v3 hello for v2": v3.Bytes()} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(hello); err != nil {
			t.Fatal(err)
		}
		fr := muxns.NewNSFrameReader(nc, 1<<20)
		var resp muxns.NSResponse
		if err := fr.ReadResponse(&resp); err != nil {
			t.Fatalf("%s: reading the reply: %v", name, err)
		}
		if err := resp.Err(); err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
			t.Fatalf("%s: reply %v, want the version-mismatch error", name, err)
		}
		if err := fr.ReadResponse(&resp); err == nil {
			t.Fatalf("%s: connection still open after the mismatch", name)
		}
	}
}

// TestServerCollectsUntilDrain: a server built on a registry exports its
// Stats as the mux_server_* families while it serves, and stops once it
// drains, so a replacement server on the same registry is the only one
// exported.
func TestServerCollectsUntilDrain(t *testing.T) {
	reg := telemetry.NewRegistry(0)
	addr, srv, l := start(t, newBackFS(t), server.Options{Registry: reg})
	if err := dial(t, addr, muxrpc.NSDialOptions{}).Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	requests := func() (int64, bool) {
		for _, f := range reg.Snapshot() {
			if f.Name == "mux_server_requests_total" && len(f.Series) == 1 {
				return f.Series[0].Value, true
			}
		}
		return 0, false
	}
	if got, ok := requests(); !ok || got != srv.Stats().Requests || got == 0 {
		t.Fatalf("mux_server_requests_total = %d (exported %v), Stats().Requests = %d", got, ok, srv.Stats().Requests)
	}
	l.Close()
	srv.Drain(time.Second)
	if got, ok := requests(); ok {
		t.Fatalf("drained server still exported: mux_server_requests_total = %d", got)
	}
}
