package muxrpc

import (
	"errors"
	"net"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fs/blockfs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/fstest"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// newNodeFS builds the xfslite a test node serves.
func newNodeFS(t *testing.T) *blockfs.FS {
	t.Helper()
	fs, err := xfslite.New("xfs@remote", device.New(device.SSDProfile("ssd0"), simclock.New()))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// serve exports fs as a tier on a loopback listener until the test ends.
func serve(t *testing.T, fs vfs.FileSystem, l net.Listener) {
	t.Helper()
	srv := NewServer(fs)
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
}

// newRemoteFS serves fs over a loopback TCP connection and returns the
// dialed client.
func newRemoteFS(t *testing.T, fs vfs.FileSystem) *NSClient {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, fs, l)
	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConformance runs the full VFS contract across the RPC boundary —
// the property Distributed Mux (§4) depends on: a remote file system is
// indistinguishable from a local one at the interface.
func TestConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem { return newRemoteFS(t, newNodeFS(t)) })
}

func TestRemoteName(t *testing.T) {
	c := newRemoteFS(t, newNodeFS(t))
	if c.Name() != "muxns:xfs@remote" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestClosedRemoteHandle(t *testing.T) {
	c := newRemoteFS(t, newNodeFS(t))
	f, err := c.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("read on a closed handle: %v, want ErrClosed", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("tcp", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestConcurrency(t *testing.T) {
	fstest.RunConcurrency(t, func(t *testing.T) vfs.FileSystem { return newRemoteFS(t, newNodeFS(t)) })
}

// TestRemoteCrashRecovery holds a remote tier to the crash contract. The
// wire carries no crash op, so the drill crashes the served file system
// in-process, on the node, while the client stays connected.
func TestRemoteCrashRecovery(t *testing.T) {
	fstest.RunCrashRecovery(t, func(t *testing.T) (vfs.FileSystem, func() vfs.FileSystem) {
		fs := newNodeFS(t)
		c := newRemoteFS(t, fs)
		return c, func() vfs.FileSystem {
			fs.Crash()
			if err := fs.Recover(); err != nil {
				t.Fatalf("node recover: %v", err)
			}
			return c
		}
	})
}
