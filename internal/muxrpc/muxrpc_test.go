package muxrpc

import (
	"errors"
	"io"
	"net"
	"net/rpc"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/fstest"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// newRemoteFS serves a fresh xfslite over a loopback TCP connection and
// returns the dialed client.
func newRemoteFS(t *testing.T) *Client {
	t.Helper()
	dev := device.New(device.SSDProfile("ssd0"), simclock.New())
	fs, err := xfslite.New("xfs@remote", dev)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := NewServer(fs)
	go srv.Serve(l)

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
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem { return newRemoteFS(t) })
}

func TestRemoteName(t *testing.T) {
	c := newRemoteFS(t)
	if c.Name() != "remote:xfs@remote" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestClosedRemoteHandle(t *testing.T) {
	c := newRemoteFS(t)
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
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("tcp", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestConcurrency(t *testing.T) {
	fstest.RunConcurrency(t, func(t *testing.T) vfs.FileSystem { return newRemoteFS(t) })
}

func TestRemoteCrashRecovery(t *testing.T) {
	fstest.RunCrashRecovery(t, func(t *testing.T) (vfs.FileSystem, func() vfs.FileSystem) {
		c := newRemoteFS(t)
		return c, func() vfs.FileSystem {
			c.Crash()
			if err := c.Recover(); err != nil {
				t.Fatalf("remote recover: %v", err)
			}
			return c
		}
	})
}

// TestReadArgsValidated ships hostile ReadArgs straight over net/rpc: a
// negative or over-cap length must come back as ErrInvalid, not size an
// allocation (which would panic the server).
func TestReadArgsValidated(t *testing.T) {
	c := newRemoteFS(t)
	f, err := c.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	h := f.(*remoteFile).handle
	rc, err := rpc.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for _, n := range []int{-1, tierMaxRead + 1, 1 << 50} {
		var reply ReadReply
		if err := rc.Call("MuxTier.ReadAt", ReadArgs{Handle: h, N: n}, &reply); err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if !errors.Is(reply.Err(), vfs.ErrInvalid) {
			t.Fatalf("N=%d: status %v, want ErrInvalid", n, reply.Err())
		}
	}
}

// TestReadPastWireCap reads more than tierMaxRead in one ReadAt: the
// client splits it, and the bytes past the first wire read arrive intact.
func TestReadPastWireCap(t *testing.T) {
	c := newRemoteFS(t)
	f, err := c.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	size := tierMaxRead + 4096
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
