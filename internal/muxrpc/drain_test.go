package muxrpc

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"muxfs/internal/muxns"
	"muxfs/internal/server"
	"muxfs/internal/vfs"
)

// gateFS blocks selected operations on a channel so tests can hold calls
// in flight on a tier export deterministically. blocked counts the calls
// that have reached the file system and are waiting on the gate.
type gateFS struct {
	vfs.FileSystem
	mu      sync.Mutex
	ch      chan struct{}
	blocked int
}

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
	if ch != nil {
		g.blocked++
	}
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// waitBlocked waits until n calls are executing inside the file system,
// held at the gate. Unlike the server's in-flight count, which includes
// queued requests a severed connection drops unexecuted, this guarantees
// the calls will complete server-side.
func (g *gateFS) waitBlocked(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		b := g.blocked
		g.mu.Unlock()
		if b >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fewer than %d calls ever reached the gate", n)
}

func (g *gateFS) Rename(oldPath, newPath string) error {
	g.wait()
	return g.FileSystem.Rename(oldPath, newPath)
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

type gateFile struct {
	vfs.File
	g *gateFS
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	f.g.wait()
	return f.File.ReadAt(p, off)
}

// startGated exports a gated xfslite as a tier (NewServer) on a tracked
// listener and returns the gate, server, listener and a client dialed
// with the given pool width.
func startGated(t *testing.T, poolSize int) (*gateFS, *server.Server, *trackedListener, *NSClient) {
	t.Helper()
	g := &gateFS{FileSystem: newNodeFS(t)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackedListener{Listener: l}
	srv := NewServer(g)
	go srv.Serve(tl)
	t.Cleanup(func() {
		tl.Close()
		srv.Close()
	})
	c, err := DialPool("tcp", tl.Addr().String(), poolSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return g, srv, tl, c
}

func waitTierInFlight(t *testing.T, srv *server.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.InFlight() < n {
		t.Fatalf("in-flight never reached %d (at %d)", n, srv.InFlight())
	}
}

func waitTierIdle(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.InFlight(); n > 0 {
		t.Fatalf("tier server never went idle (%d in flight)", n)
	}
}

// TestDrainUnderLoad checks a tier export's graceful shutdown: listener
// closed first, then Drain waits for in-flight calls to finish before
// severing connections — no call is cut mid-execution.
func TestDrainUnderLoad(t *testing.T) {
	g, srv, tl, c := startGated(t, 2)
	f, err := c.Create("/d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}

	g.arm()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			buf := make([]byte, 5)
			_, err := f.ReadAt(buf, 0)
			done <- err
		}()
	}
	waitTierInFlight(t, srv, 4)

	tl.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		g.release()
	}()
	if cut := srv.Drain(5 * time.Second); cut != 0 {
		t.Fatalf("drain cut %d in-flight calls", cut)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("in-flight call failed during drain: %v", err)
		}
	}
}

// TestSeverMidCallIdempotent kills the tier's sockets under an executing
// read; the client must redial, re-open the handle by path and retry the
// read to success.
func TestSeverMidCallIdempotent(t *testing.T) {
	g, srv, tl, c := startGated(t, 1)
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
	waitTierInFlight(t, srv, 1)
	tl.killConns() // severs the connection with the read still executing
	g.release()
	if err := <-done; err != nil {
		t.Fatalf("idempotent read did not survive severed connection: %v", err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("read %q", got)
	}
	if poolMetric(t, c, "mux_rpc_pool_reconnects_total") == 0 || poolMetric(t, c, "mux_rpc_pool_retries_total") == 0 {
		t.Fatal("reconnect/retry not counted")
	}
}

// TestSeverMidCallNonIdempotent kills the tier's sockets under an
// executing rename; the client must surface the typed error — never
// silently replay an op that may have applied.
func TestSeverMidCallNonIdempotent(t *testing.T) {
	g, srv, tl, c := startGated(t, 1)
	f, err := c.Create("/n1")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g.arm()
	done := make(chan error, 1)
	go func() { done <- c.Rename("/n1", "/n2") }()
	g.waitBlocked(t, 1)
	tl.killConns()
	g.release()
	err = <-done
	if !errors.Is(err, muxns.ErrNonIdempotent) {
		t.Fatalf("rename cut mid-call: got %v, want ErrNonIdempotent", err)
	}
	var ne *muxns.NonIdempotentError
	if !errors.As(err, &ne) || ne.Method != "muxns.rename" {
		t.Fatalf("typed error missing method: %v", err)
	}
	// The server applied the rename after the cut; the caller's recovery
	// path — re-check state with an idempotent op — must see that.
	waitTierIdle(t, srv)
	if _, err := c.Stat("/n2"); err != nil {
		t.Fatalf("stat after ambiguous rename: %v", err)
	}
}

// TestShortFrameMidCall kills the established sockets between calls: the
// client must recover on its own for idempotent calls (reconnect, re-open,
// one retry) without the caller seeing an error on the next operation.
func TestShortFrameMidCall(t *testing.T) {
	tl := serveNode(t)
	c, err := DialPool("tcp", tl.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5a}, 8192)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Sever every established connection. The server stays up; the
	// idempotent retry must redial and complete.
	tl.killConns()
	buf := make([]byte, len(data))
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		t.Fatalf("ReadAt after connection kill: %v", err)
	}
	if n != len(data) || !bytes.Equal(buf, data) {
		t.Fatalf("ReadAt after reconnect returned wrong bytes (n=%d)", n)
	}
	if _, err := f.WriteAt(data, 8192); err != nil {
		t.Fatalf("WriteAt after connection kill: %v", err)
	}
}

// TestReadArgsValidated ships hostile read frames straight to a tier
// export: a negative or over-cap length must come back as ErrInvalid, not
// size an allocation, and the connection must stay usable.
func TestReadArgsValidated(t *testing.T) {
	tl := serveNode(t)
	nc, err := net.Dial("tcp", tl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fw := muxns.NewNSFrameWriter(nc)
	fr := muxns.NewNSFrameReader(nc, muxns.NSDefaultMaxData+muxns.NSFrameSlack)
	var seq uint64
	call := func(req *muxns.NSRequest) *muxns.NSResponse {
		t.Helper()
		seq++
		req.Seq = seq
		if err := fw.WriteRequest(req); err != nil {
			t.Fatalf("encode: %v", err)
		}
		resp := &muxns.NSResponse{}
		if err := fr.ReadResponse(resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp
	}
	hello := call(&muxns.NSRequest{Op: muxns.NSHello, N: muxns.NSProtoVersion})
	if hello.Err() != nil {
		t.Fatalf("hello: %v", hello.Err())
	}
	cr := call(&muxns.NSRequest{Op: muxns.NSCreate, Path: "/x"})
	if cr.Err() != nil {
		t.Fatalf("create: %v", cr.Err())
	}
	for _, n := range []int64{-1, hello.MaxData + 1, 1 << 50} {
		resp := call(&muxns.NSRequest{Op: muxns.NSRead, Handle: cr.Handle, N: n})
		if !errors.Is(resp.Err(), vfs.ErrInvalid) {
			t.Fatalf("N=%d: status %v, want ErrInvalid", n, resp.Err())
		}
	}
	if resp := call(&muxns.NSRequest{Op: muxns.NSRead, Handle: cr.Handle, N: 16}); resp.Err() != nil {
		t.Fatalf("well-formed read after rejections: %v", resp.Err())
	}
}

// TestReadPastWireCap reads more than the tier's negotiated payload cap
// in one ReadAt: the client splits it, and the bytes past the first wire
// read arrive intact.
func TestReadPastWireCap(t *testing.T) {
	c := newRemoteFS(t, newNodeFS(t))
	f, err := c.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	size := int(c.MaxData()) + 4096
	if _, err := f.WriteAt([]byte("tail"), int64(size-4)); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, size)
	n, err := f.ReadAt(p, 0)
	if n != size || (err != nil && !errors.Is(err, io.EOF)) {
		t.Fatalf("ReadAt = %d, %v; want %d", n, err, size)
	}
	if string(p[size-4:]) != "tail" {
		t.Fatalf("tail = %q", p[size-4:])
	}
}

// TestNodeLossMidReadIsNotEOF kills a tier for good — sockets and
// listener — under an executing read. The read must fail with a
// connection error, never io.EOF: a caller such as the erasure-coded
// stripe set reads io.EOF as the end of the file and would zero-fill the
// lost bytes instead of reconstructing them.
func TestNodeLossMidReadIsNotEOF(t *testing.T) {
	g, srv, tl, c := startGated(t, 1)
	f, err := c.Create("/lost")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}

	g.arm()
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(make([]byte, 6), 0)
		done <- err
	}()
	waitTierInFlight(t, srv, 1)
	tl.Close()
	tl.killConns()
	err = <-done
	g.release()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("read from a lost node: %v, want a connection error", err)
	}
	if !isConnErr(err) {
		t.Fatalf("read from a lost node: %v is not a connection error", err)
	}
}
