package muxrpc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"muxfs/internal/muxns"
	"muxfs/internal/vfs"
)

// trackedListener records accepted connections so tests can kill the
// established sockets (not just the accept loop), simulating a node that
// drops off the network mid-call.
type trackedListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (tl *trackedListener) Accept() (net.Conn, error) {
	c, err := tl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tl.mu.Lock()
	tl.conns = append(tl.conns, c)
	tl.mu.Unlock()
	return c, nil
}

func (tl *trackedListener) killConns() {
	tl.mu.Lock()
	for _, c := range tl.conns {
		c.Close()
	}
	tl.conns = nil
	tl.mu.Unlock()
}

// serveNode serves a fresh xfslite on a tracked loopback listener.
func serveNode(t *testing.T) *trackedListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackedListener{Listener: l}
	serve(t, newNodeFS(t), tl)
	return tl
}

func TestDialPoolSize(t *testing.T) {
	tl := serveNode(t)
	c, err := DialPool("tcp", tl.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.PoolSize() != 4 {
		t.Fatalf("PoolSize = %d, want 4", c.PoolSize())
	}
	// Round-robin must route calls on every slot without error, each
	// slot over its own connection.
	for i := 0; i < 16; i++ {
		if _, err := c.Statfs(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := poolMetric(t, c, "mux_rpc_pool_dials_total"); got != 4 {
		t.Fatalf("dials = %d, want one per slot", got)
	}
}

// TestHandshakeFailure dials a TCP server that is not speaking muxns: the
// dial succeeds, the handshake must fail with the typed sentinel and the
// connection must be torn down.
func TestHandshakeFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Its first four bytes read as a frame length past any cap.
			conn.Write([]byte("HTTP/1.0 400 Bad Request\r\n\r\nnot muxns"))
			conn.Close()
		}
	}()
	hsBefore := totalHandshakeFails.Load()
	_, err = DialPool("tcp", l.Addr().String(), 3)
	if err == nil {
		t.Fatal("handshake against a non-muxns server succeeded")
	}
	if !errors.Is(err, muxns.ErrHandshake) {
		t.Fatalf("error %v is not ErrHandshake", err)
	}
	if hs := totalHandshakeFails.Load(); hs <= hsBefore {
		t.Fatal("handshake failure not counted in Totals")
	}
}

// TestServerRestartMidCall restarts the whole server (listener, conns,
// worker pool) on the same address over the same file system. Path-level
// idempotent calls must succeed after the restart via reconnect; an open
// handle re-opens by path and reads the persisted bytes; and a handle
// whose file vanished while the server was down must fail with a decoded
// vfs error rather than a transport error.
func TestServerRestartMidCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	fs := newNodeFS(t)
	srv1 := NewServer(fs)
	go srv1.Serve(l)

	c, err := DialPool("tcp", addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Create("/keep")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	gone, err := c.Create("/gone")
	if err != nil {
		t.Fatal(err)
	}

	// Restart: stop the first server, remove a file behind its back, and
	// bring up a new server on the same address over the same FS.
	l.Close()
	srv1.Close()
	if err := fs.Remove("/gone"); err != nil {
		t.Fatal(err)
	}
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	serve(t, fs, l2)

	if _, err := c.Stat("/keep"); err != nil {
		t.Fatalf("Stat after server restart: %v", err)
	}
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt on a handle across the restart: %v", err)
	}
	if string(buf) != "abc" {
		t.Fatalf("read across the restart = %q", buf)
	}
	_, err = gone.ReadAt(buf, 0)
	if !errors.Is(err, vfs.ErrNotExist) || isConnErr(err) {
		t.Fatalf("read of a file removed during the restart: %v, want a decoded ErrNotExist", err)
	}
}

// TestConcurrentPoolCalls hammers one client from many goroutines (run
// under -race): distinct files, interleaved reads/writes/stats through
// every pool slot.
func TestConcurrentPoolCalls(t *testing.T) {
	tl := serveNode(t)
	c, err := DialPool("tcp", tl.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers = 8
	const opsPer = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/w%d", w)
			f, err := c.Create(path)
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			pat := bytes.Repeat([]byte{byte(w + 1)}, 4096)
			for i := 0; i < opsPer; i++ {
				off := int64(i%4) * 4096
				if _, err := f.WriteAt(pat, off); err != nil {
					errs <- fmt.Errorf("w%d write: %w", w, err)
					return
				}
				buf := make([]byte, 4096)
				if _, err := f.ReadAt(buf, off); err != nil {
					errs <- fmt.Errorf("w%d read: %w", w, err)
					return
				}
				if !bytes.Equal(buf, pat) {
					errs <- fmt.Errorf("w%d: cross-talk between pooled calls", w)
					return
				}
				if _, err := c.Stat(path); err != nil {
					errs <- fmt.Errorf("w%d stat: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolStatsCounting exercises the dial/call counters end to end, as
// the client's collector exports them: slots dial on first use, a
// severed connection is redialed and counted as a reconnect, and the
// package totals never trail a client.
func TestPoolStatsCounting(t *testing.T) {
	tl := serveNode(t)
	c, err := DialPool("tcp", tl.Addr().String(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Stat("/"); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]int64{
		"mux_rpc_pool_slots":            3,
		"mux_rpc_pool_dials_total":      3,
		"mux_rpc_pool_reconnects_total": 0,
		"mux_rpc_pool_calls_total":      3,
		"mux_rpc_pool_inflight":         0,
		"mux_rpc_pool_slot_inflight":    0,
	} {
		if got := poolMetric(t, c, name); got != want {
			t.Fatalf("fresh pool: %s = %d, want %d", name, got, want)
		}
	}

	tl.killConns() // sever; the next call on each slot redials
	for i := 0; i < 3; i++ {
		if _, err := c.Stat("/"); err != nil {
			t.Fatal(err)
		}
	}
	reconnects, dials := poolMetric(t, c, "mux_rpc_pool_reconnects_total"), poolMetric(t, c, "mux_rpc_pool_dials_total")
	if reconnects != 3 || dials != 6 {
		t.Fatalf("reconnects not counted: %d reconnects, %d dials", reconnects, dials)
	}

	if total := totalDials.Load(); total < dials {
		t.Fatalf("package totals behind client: %d < %d", total, dials)
	}
}

// poolMetric sums the series of c's collected family name.
func poolMetric(t *testing.T, c *NSClient, name string) int64 {
	t.Helper()
	for _, f := range c.Collect() {
		if f.Name == name {
			var sum int64
			for _, s := range f.Series {
				sum += s.Value
			}
			return sum
		}
	}
	t.Fatalf("client exports no %s", name)
	return 0
}
