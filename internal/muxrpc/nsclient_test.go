package muxrpc

import (
	"errors"
	"net"
	"testing"

	"muxfs/internal/muxns"
	"muxfs/internal/vfs"
)

// serveLongReads is a muxns peer that answers every read with more data
// than was asked for, and every other op with success.
func serveLongReads(l net.Listener) {
	for {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close()
			fr := muxns.NewNSFrameReader(nc, 1<<20)
			fw := muxns.NewNSFrameWriter(nc)
			for {
				var req muxns.NSRequest
				if err := fr.ReadRequest(&req, nil); err != nil {
					return
				}
				resp := muxns.NSResponse{Seq: req.Seq, Op: req.Op, Handle: 1}
				switch req.Op {
				case muxns.NSHello:
					resp.ServerName, resp.MaxData = "liar", 1<<20
				case muxns.NSRead:
					resp.Data = make([]byte, req.N+8)
				case muxns.NSStat:
					resp.Info = vfs.FileInfo{Path: req.Path, Size: 1}
				}
				if err := fw.WriteResponse(&resp); err != nil {
					return
				}
			}
		}()
	}
}

// TestNSReadReplyLongerThanBuffer checks a read reply carrying more data
// than the caller's buffer holds fails the call with a protocol error and
// kills the connection; the next call redials.
func TestNSReadReplyLongerThanBuffer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serveLongReads(l)

	c, err := NSDial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	f, err := c.Open("/x")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, muxns.ErrBadFrame) {
		t.Fatalf("ReadAt: err = %v, want ErrBadFrame", err)
	}
	if fi, err := c.Stat("/x"); err != nil || fi.Path != "/x" {
		t.Fatalf("Stat after the protocol error: %+v, %v", fi, err)
	}
	if got := poolMetric(t, c, "mux_rpc_pool_dials_total"); got != 2 {
		t.Fatalf("dials = %d, want 2 (the bad reply must kill the first connection)", got)
	}
}
