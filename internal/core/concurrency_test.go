package core

// Concurrency regression tests for the sharded namespace, the lock-free
// read fast path, and the group-commit meta flusher. All of them are
// designed to run under -race: the assertions catch lost updates, the race
// detector catches unsynchronized ones.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// TestConcurrentNamespaceStress races Create/Open/Rename/Remove/ReadDir/
// Stat across shared directories against a running migration policy, tier
// add/remove, and concurrent Sync (group commit). Each worker's op sequence
// is net-zero until it creates its keeper files, so the final namespace
// count is exact: no file may be lost or leaked.
func TestConcurrentNamespaceStress(t *testing.T) {
	const (
		workers = 4
		iters   = 60
		dirs    = 3
		keep    = 2
	)
	r := newRig(t, policy.DefaultLRU(), true)
	m := r.m

	for d := 0; d < dirs; d++ {
		if err := m.Mkdir(fmt.Sprintf("/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	// Background migration policy rounds.
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = m.RunPolicyOnce()
		}
	}()
	// Background tier churn + group-commit flushes.
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if xt, err := newXFSTier(r.clk); err == nil {
				id := m.AddTier(xt.fs, xt.prof)
				_ = m.RemoveTier(id) // fails with ErrTierBusy if data landed; fine
			}
			_ = m.Sync()
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	payload := bytes.Repeat([]byte{0xAB}, 2048)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail := func(err error) bool {
				if err != nil {
					errc <- err
					return true
				}
				return false
			}
			for i := 0; i < iters; i++ {
				p := fmt.Sprintf("/d%d/w%d-%d", w%dirs, w, i)
				p2 := fmt.Sprintf("/d%d/w%d-%dr", (w+1)%dirs, w, i)
				fh, err := m.Create(p)
				if fail(err) {
					return
				}
				if _, err := fh.WriteAt(payload, 0); fail(err) {
					return
				}
				fh.Close()
				if _, err := m.Stat(p); fail(err) {
					return
				}
				if _, err := m.ReadDir(fmt.Sprintf("/d%d", w%dirs)); fail(err) {
					return
				}
				if err := m.Rename(p, p2); fail(err) {
					return
				}
				fh, err = m.Open(p2)
				if fail(err) {
					return
				}
				buf := make([]byte, len(payload))
				if _, err := fh.ReadAt(buf, 0); fail(err) {
					return
				}
				fh.Close()
				if !bytes.Equal(buf, payload) {
					errc <- fmt.Errorf("worker %d iter %d: readback mismatch", w, i)
					return
				}
				if err := m.Remove(p2); fail(err) {
					return
				}
			}
			for k := 0; k < keep; k++ {
				fh, err := m.Create(fmt.Sprintf("/d%d/keep-%d-%d", w%dirs, w, k))
				if fail(err) {
					return
				}
				if _, err := fh.WriteAt(payload, 0); fail(err) {
					return
				}
				fh.Close()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Accounting: exactly the dirs plus the keeper files remain.
	sfs, err := m.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(dirs + workers*keep)
	if sfs.Files != want {
		t.Fatalf("Statfs.Files = %d after churn, want %d (lost or leaked entries)", sfs.Files, want)
	}
	for w := 0; w < workers; w++ {
		for k := 0; k < keep; k++ {
			p := fmt.Sprintf("/d%d/keep-%d-%d", w%dirs, w, k)
			fi, err := m.Stat(p)
			if err != nil {
				t.Fatalf("keeper %s lost: %v", p, err)
			}
			if fi.Size != int64(len(payload)) {
				t.Fatalf("keeper %s size = %d, want %d", p, fi.Size, len(payload))
			}
		}
	}
	if rep := m.Fsck(); !rep.OK() {
		t.Fatalf("fsck after stress: %v", rep.Problems)
	}
}

// TestCrossShardRenameNoDeadlock drives renames in both directions between
// two directory pairs from two goroutines. The shard-lock ordering (always
// ascending shard index, fsbase.Namespace lockPair) must prevent the classic
// AB-BA deadlock; a hang here fails via the watchdog.
func TestCrossShardRenameNoDeadlock(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	m := r.m
	for _, d := range []string{"/a", "/b"} {
		if err := m.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	fh, err := m.Create("/a/x")
	if err != nil {
		t.Fatal(err)
	}
	fh.Close()
	fh, err = m.Create("/b/y")
	if err != nil {
		t.Fatal(err)
	}
	fh.Close()

	const iters = 500
	done := make(chan error, 2)
	// Goroutine 1 bounces /a/x <-> /b/x; goroutine 2 bounces /b/y <-> /a/y.
	// Each pair of renames locks the same two shards in opposite request
	// order.
	go func() {
		for i := 0; i < iters; i++ {
			if err := m.Rename("/a/x", "/b/x"); err != nil {
				done <- err
				return
			}
			if err := m.Rename("/b/x", "/a/x"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < iters; i++ {
			if err := m.Rename("/b/y", "/a/y"); err != nil {
				done <- err
				return
			}
			if err := m.Rename("/a/y", "/b/y"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("cross-shard rename deadlocked")
		}
	}
	for _, p := range []string{"/a/x", "/b/y"} {
		if _, err := m.Stat(p); err != nil {
			t.Fatalf("%s lost after rename storm: %v", p, err)
		}
	}
}

// TestReadFastPathRacesMigration hammers the lock-free single-extent read
// path while a migrator repeatedly repoints the file's extents between two
// tiers. The OCC recheck must catch every read whose mapping moved
// mid-flight — in particular a read served from the source tier after
// reclaimSource punched it (which would return zeros) must retry, never
// surface. Every read must return the staged pattern.
func TestReadFastPathRacesMigration(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	m := r.m
	const size = 256 * 1024
	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	fh := writeFile(t, m, "/occ", pattern)
	defer fh.Close()
	// Prime the downward handle cache so the lock-free path runs.
	warm := make([]byte, 4096)
	if _, err := fh.ReadAt(warm, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readErr := make(chan error, 2)
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			buf := make([]byte, 4096)
			off := int64(g * 8192)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n, err := fh.ReadAt(buf, off)
				if err != nil {
					readErr <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if !bytes.Equal(buf[:n], pattern[off:off+int64(n)]) {
					readErr <- fmt.Errorf("reader %d: stale or zeroed bytes at off %d (migration race leaked)", g, off)
					return
				}
				off += 4096
				if off+4096 > size {
					off = int64(g * 8192 % 4096)
				}
			}
		}(g)
	}

	moved := 0
	for i := 0; i < 20; i++ {
		src, dst := r.ids.pm, r.ids.ssd
		if i%2 == 1 {
			src, dst = dst, src
		}
		n, err := m.Migrate("/occ", src, dst)
		if err != nil && !errors.Is(err, ErrMigrationActive) {
			t.Fatalf("migrate round %d: %v", i, err)
		}
		if n > 0 {
			moved++
		}
	}
	close(stop)
	readers.Wait()
	close(readErr)
	for err := range readErr {
		t.Fatal(err)
	}
	if moved < 2 {
		t.Fatalf("only %d migration rounds moved data; race window never opened", moved)
	}

	// Final readback through a fresh handle: byte-identical.
	fh2, err := m.Open("/occ")
	if err != nil {
		t.Fatal(err)
	}
	defer fh2.Close()
	got := make([]byte, size)
	if _, err := fh2.ReadAt(got, 0); err != nil && !errors.Is(err, vfs.ErrInvalid) {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Fatal("file corrupted after migration storm")
	}
}
