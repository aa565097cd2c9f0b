package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"muxfs/internal/fstest"
	"muxfs/internal/muxns"
	"muxfs/internal/muxrpc"
	"muxfs/internal/race"
	"muxfs/internal/server"
	"muxfs/internal/vfs"
)

// memFS serves one fixed-size in-memory file and allocates nothing per
// op, so the budgets below measure the wire and the server alone. Methods
// the budgets never reach are left to the embedded nil interface.
type memFS struct {
	vfs.FileSystem
	f *memFile
}

func newMemFS(path string, size int) *memFS {
	return &memFS{f: &memFile{data: make([]byte, size), info: vfs.FileInfo{Path: path, Size: int64(size)}}}
}

func (m *memFS) Name() string                      { return "mem" }
func (m *memFS) Open(string) (vfs.File, error)     { return m.f, nil }
func (m *memFS) Stat(string) (vfs.FileInfo, error) { return m.f.info, nil }

type memFile struct {
	vfs.File
	mu   sync.Mutex
	data []byte
	info vfs.FileInfo
}

func (f *memFile) Stat() (vfs.FileInfo, error) { return f.info, nil }
func (f *memFile) Close() error                { return nil }
func (f *memFile) Path() string                { return f.info.Path }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return copy(p, f.data[off:]), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return copy(f.data[off:], p), nil
}

// TestWireAllocBudget bounds the heap one NSClient round trip costs over
// loopback, client and server together: no payload-sized allocation may
// be left on the path — read data lands straight in the caller's buffer,
// write payloads and read buffers come from the server's pool, calls and
// tasks are pooled.
func TestWireAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const size = 4096
	addr, _, _ := start(t, newMemFS("/f", 64*size), server.Options{})
	c := dial(t, addr, muxrpc.NSDialOptions{})
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for _, tc := range []struct {
		name  string
		limit float64 // B per round trip
		op    func() error
	}{
		{"ReadAt 4KiB", 512, func() error { _, err := f.ReadAt(buf, 8*size); return err }},
		{"WriteAt 4KiB", 512, func() error { _, err := f.WriteAt(buf, 8*size); return err }},
		{"Stat", 512, func() error { _, err := c.Stat("/f"); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opErr error
			op := func() {
				if err := tc.op(); err != nil {
					opErr = err
				}
			}
			for i := 0; i < 100; i++ { // fill the pools
				op()
			}
			got := fstest.AllocBytesPerRun(500, op)
			if opErr != nil {
				t.Fatal(opErr)
			}
			t.Logf("%.0f B per round trip", got)
			if got > tc.limit {
				t.Fatalf("%.0f B per round trip, budget %.0f", got, tc.limit)
			}
		})
	}
}

// TestTinyBatchDecodeHeap ships batch frames of 1-byte write sub-ops, the
// requests with the most sub-ops and payloads per wire byte, and holds
// what decoding one costs the server to the bound the muxns decoder's
// fuzz targets use: 16× the frame's length plus 1 KiB.
func TestTinyBatchDecodeHeap(t *testing.T) {
	tinyBatch := func(n int) []byte {
		req := &muxns.NSRequest{Seq: 2, Op: muxns.NSBatch, Batch: make([]muxns.NSSubOp, n)}
		for i := range req.Batch {
			req.Batch[i] = muxns.NSSubOp{Op: muxns.NSWrite, Handle: 1, Data: []byte{1}}
		}
		var b bytes.Buffer
		if err := muxns.NewNSFrameWriter(&b).WriteRequest(req); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// coldHeap measures f once with the buffer pools emptied (two GCs drop
	// every pooled item), so recycled buffers cannot hide what a decode
	// draws.
	coldHeap := func(f func()) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	check := func(t *testing.T, heap float64, frame []byte) {
		t.Helper()
		t.Logf("%.0f B to decode a %d-byte frame", heap, len(frame))
		if limit := float64(16*len(frame) + 1<<10); heap > limit {
			t.Fatalf("%.0f B to decode a %d-byte frame, limit %.0f", heap, len(frame), limit)
		}
	}

	// A batch past MaxBatch is refused from its count before any sub-op is
	// decoded, and the connection lives on.
	t.Run("over MaxBatch", func(t *testing.T) {
		addr, srv, _ := start(t, newBackFS(t), server.Options{})
		rc := rawDial(t, addr)
		frame := tinyBatch(100_000)
		var resp muxns.NSResponse
		var err error
		heap := coldHeap(func() {
			if _, err = rc.nc.Write(frame); err == nil {
				err = rc.fr.ReadResponse(&resp)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(resp.Err(), vfs.ErrInvalid) {
			t.Fatalf("over-limit batch: got %v, want ErrInvalid", resp.Err())
		}
		if got := srv.Stats().RejectedInvalid; got != 1 {
			t.Fatalf("RejectedInvalid = %d, want 1", got)
		}
		check(t, heap, frame)
		if resp := rc.call(t, &muxns.NSRequest{Seq: 3, Op: muxns.NSStat, Path: "/"}); resp.Err() != nil {
			t.Fatalf("stat after the refused batch: %v", resp.Err())
		}
	})

	// Within the limit every sub-op decodes, each payload into an
	// exact-size buffer rather than a pooled 512 B one.
	t.Run("within MaxBatch", func(t *testing.T) {
		const n = 20_000
		frame := tinyBatch(n)
		fr := muxns.NewNSFrameReader(bytes.NewReader(frame), int64(len(frame)))
		fr.SetMaxBatch(n)
		var req *muxns.NSRequest
		var release func()
		var err error
		heap := coldHeap(func() { req, release, err = server.DecodeRequest(fr) })
		if err == nil && len(req.Batch) != n {
			err = fmt.Errorf("decoded %d sub-ops, want %d", len(req.Batch), n)
		}
		release()
		if err != nil {
			t.Fatal(err)
		}
		check(t, heap, frame)
	})
}
