package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// --- pipeCopy unit tests. ---

// memSource is a fixed byte slice exposed through the read-closure shape.
func memSource(data []byte) func([]byte, int64) (int, error) {
	return func(p []byte, off int64) (int, error) {
		if off >= int64(len(data)) {
			return 0, nil
		}
		return copy(p, data[off:]), nil
	}
}

func TestPipeCopyCopiesRanges(t *testing.T) {
	src := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, len(src))
	write := func(p []byte, off int64) error {
		copy(dst[off:], p)
		return nil
	}
	ranges := []vfs.Extent{{Off: 0, Len: 300000}, {Off: 500000, Len: 1<<20 - 500000}}
	if err := pipeCopy(ranges, 64*1024, memSource(src), write); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:300000], src[:300000]) {
		t.Fatal("first range not copied")
	}
	if !bytes.Equal(dst[500000:], src[500000:]) {
		t.Fatal("second range not copied")
	}
	for _, b := range dst[300000:500000] {
		if b != 0 {
			t.Fatal("pipeCopy wrote outside the requested ranges")
		}
	}
}

func TestPipeCopyClampsShortReads(t *testing.T) {
	// Source holds 100 KiB but the mapped range claims 256 KiB: the writer
	// must see only the 100 KiB actually read, never zero-fill.
	src := bytes.Repeat([]byte{0xAB}, 100*1024)
	var wrote int64
	write := func(p []byte, off int64) error {
		for _, b := range p {
			if b != 0xAB {
				t.Fatal("zero-filled bytes reached the writer")
			}
		}
		if end := off + int64(len(p)); end > wrote {
			wrote = end
		}
		return nil
	}
	ranges := []vfs.Extent{{Off: 0, Len: 256 * 1024}}
	if err := pipeCopy(ranges, 64*1024, memSource(src), write); err != nil {
		t.Fatal(err)
	}
	if wrote != 100*1024 {
		t.Fatalf("writer high-water mark = %d, want %d", wrote, 100*1024)
	}
}

func TestPipeCopyPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	// Read error.
	readFail := func(p []byte, off int64) (int, error) {
		if off >= 128*1024 {
			return 0, boom
		}
		return len(p), nil
	}
	err := pipeCopy([]vfs.Extent{{Off: 0, Len: 1 << 20}}, 64*1024, readFail,
		func(p []byte, off int64) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("read error not propagated: %v", err)
	}
	// Write error: the reader side must shut down without deadlocking even
	// though many chunks remain.
	err = pipeCopy([]vfs.Extent{{Off: 0, Len: 8 << 20}}, 64*1024,
		func(p []byte, off int64) (int, error) { return len(p), nil },
		func(p []byte, off int64) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("write error not propagated: %v", err)
	}
}

// --- Satellite regression: tail clamp on a source shorter than its map. ---

func TestMigrateClampsShortSourceTail(t *testing.T) {
	// A concurrent truncate can shrink the source file while its BLT range
	// is still mapped. The copy must clamp to the bytes actually read —
	// zero-filling the tail used to resurrect garbage past EOF on the
	// destination. Exercise both the serial and the pipelined copier.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := newRig(t, policy.Pinned{Tier: 0}, false)
			r.m.SetMigrationWorkers(workers)
			const full, short = 300 * 1024, 128 * 1024
			payload := bytes.Repeat([]byte{0x5C}, full)
			f := writeFile(t, r.m, "/tail", payload)
			defer f.Close()

			// Shrink the underlying source file behind Mux's back,
			// simulating the truncate racing the copy window.
			srcFS := r.m.tierTab.Load().tiers[r.ids.pm].FS
			if err := srcFS.Truncate("/tail", short); err != nil {
				t.Fatal(err)
			}

			moved, err := r.m.Migrate("/tail", r.ids.pm, r.ids.ssd)
			if err != nil {
				t.Fatal(err)
			}
			if moved == 0 {
				t.Fatal("nothing migrated")
			}
			fi, err := r.m.tierTab.Load().tiers[r.ids.ssd].FS.Stat("/tail")
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size > short {
				t.Fatalf("destination grew to %d bytes: zero-filled tail written past source EOF (want <= %d)", fi.Size, short)
			}
		})
	}
}

// --- Satellite regression: heat decays once per successful round. ---

func TestHeatDecaySkipsFailedRounds(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/hot", bytes.Repeat([]byte{1}, 4096))
	defer f.Close()
	buf := make([]byte, 16)
	for i := 0; i < 3; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	heat := func() float64 {
		mf, err := r.m.lookupFile("/hot")
		if err != nil {
			t.Fatal(err)
		}
		return mf.heatLoad()
	}
	h0 := heat()
	if h0 == 0 {
		t.Fatal("file never heated up")
	}

	// A round that fails hard (unknown destination tier) must not cool the
	// working set: retrying the round would otherwise halve heat twice.
	r.m.SetPolicy(policy.Func{PolicyName: "bad", Plan: func([]policy.TierInfo, []policy.FileStat, time.Duration) []policy.Move {
		return []policy.Move{{Path: "/hot", SrcTier: 0, DstTier: 99, Off: 0, N: -1}}
	}})
	if _, err := r.m.RunPolicyOnce(); err == nil {
		t.Fatal("round with an unknown tier should fail")
	}
	if got := heat(); got != h0 {
		t.Fatalf("failed round decayed heat: %v -> %v", h0, got)
	}

	// Two consecutive successful rounds (planning nothing) decay once each.
	r.m.SetPolicy(policy.Func{PolicyName: "idle"})
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := heat(), h0*heatDecay; got != want {
		t.Fatalf("after one successful round: heat=%v want %v", got, want)
	}
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := heat(), h0*heatDecay*heatDecay; got != want {
		t.Fatalf("after two successful rounds: heat=%v want %v", got, want)
	}
}

// --- Parallel engine: outcome determinism and per-file ordering. ---

// rotatePolicy plans a whole-file move for every file from its current tier
// to the next one (mod 3) — a deterministic multi-file, multi-tier shuffle.
func rotatePolicy() policy.Policy {
	return policy.Func{
		PolicyName: "rotate",
		Plan: func(tiers []policy.TierInfo, files []policy.FileStat, _ time.Duration) []policy.Move {
			var moves []policy.Move
			for _, fs := range files {
				if len(fs.Tiers) != 1 {
					continue
				}
				src := fs.Tiers[0]
				moves = append(moves, policy.Move{
					Path: fs.Path, SrcTier: src, DstTier: (src + 1) % 3, Off: 0, N: -1,
					Promote: (src+1)%3 == 0,
				})
			}
			return moves
		},
	}
}

func stageRotateWorkload(t *testing.T, r *rig, files int) [][]byte {
	t.Helper()
	payloads := make([][]byte, files)
	for i := 0; i < files; i++ {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 128*1024)
		f := writeFile(t, r.m, fmt.Sprintf("/rot%02d", i), payloads[i])
		f.Close()
		if dst := i % 3; dst != 0 {
			if _, err := r.m.Migrate(fmt.Sprintf("/rot%02d", i), 0, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	return payloads
}

// placementOf snapshots every file's per-tier byte map.
func placementOf(t *testing.T, r *rig, files int) map[string]map[int]int64 {
	t.Helper()
	out := map[string]map[int]int64{}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/rot%02d", i)
		mf, err := r.m.lookupFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mf.mu.Lock()
		out[path] = mf.bytesPerTier()
		mf.mu.Unlock()
	}
	return out
}

func TestParallelRunnerMatchesSerialOutcomes(t *testing.T) {
	const files = 12
	runs := map[int]map[string]map[int]int64{}
	var serialStats, parallelStats MigrationStats
	for _, workers := range []int{1, 8} {
		r := newRig(t, policy.Pinned{Tier: 0}, false)
		r.m.SetMigrationWorkers(workers)
		payloads := stageRotateWorkload(t, r, files)
		r.m.SetPolicy(rotatePolicy())

		st, err := r.m.RunPolicyOnce()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Planned != files {
			t.Fatalf("workers=%d: planned %d moves, want %d", workers, st.Planned, files)
		}
		if st.Executed != files {
			t.Fatalf("workers=%d: executed %d moves, want %d", workers, st.Executed, files)
		}
		// A batch holds one move per path, so the runner's own moves must
		// never collide on a file: ErrMigrationActive would surface as
		// Skipped.
		if st.Skipped != 0 {
			t.Fatalf("workers=%d: %d moves skipped — per-file ordering violated", workers, st.Skipped)
		}
		if st.BytesMoved != int64(files*128*1024) {
			t.Fatalf("workers=%d: moved %d bytes", workers, st.BytesMoved)
		}
		runs[workers] = placementOf(t, r, files)

		// Data survives wherever it landed.
		for i := 0; i < files; i++ {
			got := make([]byte, 128*1024)
			h, err := r.m.Open(fmt.Sprintf("/rot%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			h.Close()
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("workers=%d: file %d corrupted", workers, i)
			}
		}
		if workers == 1 {
			serialStats = st
		} else {
			parallelStats = st
		}
	}
	// Identical outcomes, regardless of interleaving.
	for path, want := range runs[1] {
		got := runs[8][path]
		if len(got) != len(want) {
			t.Fatalf("%s: placement diverged: serial=%v parallel=%v", path, want, got)
		}
		for tier, bytesWant := range want {
			if got[tier] != bytesWant {
				t.Fatalf("%s tier %d: serial=%d parallel=%d", path, tier, bytesWant, got[tier])
			}
		}
	}
	if serialStats.Executed != parallelStats.Executed || serialStats.BytesMoved != parallelStats.BytesMoved {
		t.Fatalf("stats diverged: serial=%+v parallel=%+v", serialStats, parallelStats)
	}
}

func TestTierWidth(t *testing.T) {
	if w := tierWidth(device.HDDProfile("h"), 8); w != 1 {
		t.Fatalf("HDD width = %d, want 1 (rotational devices take one stream)", w)
	}
	if w := tierWidth(device.SSDProfile("s"), 8); w != 3 {
		t.Fatalf("SSD width = %d, want 3 (2000 MiB/s write bandwidth)", w)
	}
	if w := tierWidth(device.PMProfile("p"), 4); w != 4 {
		t.Fatalf("PM width = %d, want the full pool", w)
	}
	if w := tierWidth(device.PMProfile("p"), 16); w != 6 {
		t.Fatalf("PM width = %d, want 6 (3 GiB/s write bandwidth)", w)
	}
}

// --- Satellite: -race stress storm. ---

// TestConcurrentMigrationStorm runs concurrent MigrateRange calls on
// distinct files while reader and writer goroutines hammer the same files
// through handle.ReadAt/WriteAt. Writers always rewrite the file's own
// deterministic payload, so any torn, zero-filled, or misplaced block shows
// up as a checksum mismatch after the storm.
func TestConcurrentMigrationStorm(t *testing.T) {
	const (
		files    = 6
		fileSize = 256 * 1024
		cycles   = 6
	)
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	r.m.SetMigrationWorkers(4)

	payloads := make([][]byte, files)
	handles := make([]vfs.File, files)
	for i := 0; i < files; i++ {
		payloads[i] = bytes.Repeat([]byte{byte(0x11 * (i + 1))}, fileSize)
		handles[i] = writeFile(t, r.m, fmt.Sprintf("/storm%d", i), payloads[i])
	}
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, files*3)
	for i := 0; i < files; i++ {
		i := i
		path := fmt.Sprintf("/storm%d", i)

		// Migrator: cycle the file around the tier triangle.
		wg.Add(1)
		go func() {
			defer wg.Done()
			route := []int{r.ids.pm, r.ids.ssd, r.ids.hdd}
			for c := 0; c < cycles; c++ {
				src := route[c%3]
				dst := route[(c+1)%3]
				if _, err := r.m.MigrateRange(path, src, dst, 0, -1); err != nil &&
					!errors.Is(err, ErrMigrationActive) {
					errc <- fmt.Errorf("migrate %s %d->%d: %w", path, src, dst, err)
					return
				}
			}
		}()

		// Writer: rewrite slices of the same payload at pseudo-random
		// offsets — idempotent, so the final image is always the payload.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for c := 0; c < 40; c++ {
				off := int64(rng.Intn(fileSize-8192)) &^ 4095
				n := int64(4096 + rng.Intn(4096)&^4095)
				if _, err := handles[i].WriteAt(payloads[i][off:off+n], off); err != nil {
					errc <- fmt.Errorf("write %s: %w", path, err)
					return
				}
			}
		}()

		// Reader: every read must observe payload bytes, never junk.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			buf := make([]byte, 8192)
			for c := 0; c < 40; c++ {
				off := int64(rng.Intn(fileSize - len(buf)))
				if _, err := handles[i].ReadAt(buf, off); err != nil && !errors.Is(err, io.EOF) {
					errc <- fmt.Errorf("read %s: %w", path, err)
					return
				}
				if !bytes.Equal(buf, payloads[i][off:off+int64(len(buf))]) {
					errc <- fmt.Errorf("read %s@%d: observed torn data", path, off)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Post-storm integrity: every file equals its payload, everywhere.
	for i := 0; i < files; i++ {
		got := make([]byte, fileSize)
		if _, err := handles[i].ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("file %d corrupted after the storm", i)
		}
	}
}
