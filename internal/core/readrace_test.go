package core

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/policy"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// gateFS wraps a tier so a test can park one downward read: once armed,
// the next ReadAt through any file it opened signals entered and waits for
// release before reading.
type gateFS struct {
	vfs.FileSystem
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

type gateFile struct {
	vfs.File
	g *gateFS
}

func (g *gateFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

func (g *gateFS) Create(path string) (vfs.File, error) { return g.wrap(g.FileSystem.Create(path)) }
func (g *gateFS) Open(path string) (vfs.File, error)   { return g.wrap(g.FileSystem.Open(path)) }

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.ReadAt(p, off)
}

// TestLockedReadRacesReclaim replays, deterministically, the window the
// timing-dependent migration tests only hit by chance: a locked-path read
// resolves its mapping under f.mu, releases it, and a whole migration —
// BLT commit and reclaimSource's punch of the source — completes before
// the downward read runs. The read must notice the mapping moved and
// retry; returning the punched source's zeros is the bug.
func TestLockedReadRacesReclaim(t *testing.T) {
	const size = 128 * 1024
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i*13 + 5)
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, m *Mux)
	}{
		// A rename closes the cached downward handles, so the lock-free
		// attempt steps aside and the locked single-extent path runs.
		{"single-extent", func(t *testing.T, m *Mux) {
			if err := m.Rename("/f", "/g"); err != nil {
				t.Fatal(err)
			}
		}},
		// A read spanning two tiers always takes the locked plan path.
		{"multi-segment", func(t *testing.T, m *Mux) {
			if _, err := m.MigrateRange("/f", 0, 1, size/2, size/2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			pm := device.New(device.PMProfile("pmem0"), clk)
			ssd := device.New(device.SSDProfile("ssd0"), clk)
			m, err := New(Config{Name: "mux", Clock: clk, Policy: policy.Pinned{Tier: 0}})
			if err != nil {
				t.Fatal(err)
			}
			nova, err := novafs.New("nova@pmem0", pm, novafs.DefaultCosts())
			if err != nil {
				t.Fatal(err)
			}
			xfs, err := xfslite.New("xfs@ssd0", ssd)
			if err != nil {
				t.Fatal(err)
			}
			src := &gateFS{FileSystem: nova, entered: make(chan struct{}), release: make(chan struct{})}
			if id := m.AddTier(src, pm.Profile()); id != 0 {
				t.Fatalf("source tier id %d", id)
			}
			m.AddTier(xfs, ssd.Profile())

			fh := writeFile(t, m, "/f", pattern)
			defer fh.Close()
			tc.setup(t, m)

			src.armed.Store(true)
			got := make([]byte, size)
			done := make(chan error, 1)
			go func() {
				_, err := fh.ReadAt(got, 0)
				done <- err
			}()
			select {
			case <-src.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("read never reached the source tier")
			}
			path := fh.Path()
			moved, err := m.Migrate(path, 0, 1)
			if err != nil || moved == 0 {
				t.Fatalf("migrate during the parked read: moved %d, err %v", moved, err)
			}
			close(src.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pattern) {
				i := 0
				for got[i] == pattern[i] {
					i++
				}
				t.Fatalf("read returned reclaimed source bytes from offset %d (got %#x, want %#x)", i, got[i], pattern[i])
			}
		})
	}
}
