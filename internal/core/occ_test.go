package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

func writeFile(t *testing.T, fs vfs.FileSystem, path string, data []byte) vfs.File {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestMigrateAllSixPairs(t *testing.T) {
	// Mux supports every device pair (Figure 3a) — the extensibility win.
	pairs := [][2]int{
		{0, 1}, {0, 2},
		{1, 0}, {1, 2},
		{2, 0}, {2, 1},
	}
	for i, pair := range pairs {
		src, dst := pair[0], pair[1]
		t.Run(fmt.Sprintf("pair%d_%d_to_%d", i, src, dst), func(t *testing.T) {
			r := newRig(t, policy.Pinned{Tier: 0}, false)
			path := fmt.Sprintf("/mig%d", i)
			payload := bytes.Repeat([]byte{byte(i + 1)}, 256*1024)
			// Write pinned to src by re-pointing the policy per write via
			// a fresh file then migrating it to src first if needed.
			f := writeFile(t, r.m, path, payload)
			defer f.Close()
			if src != 0 {
				if _, err := r.m.Migrate(path, 0, src); err != nil {
					t.Fatalf("staging migration: %v", err)
				}
			}
			moved, err := r.m.Migrate(path, src, dst)
			if err != nil {
				t.Fatalf("Migrate(%d->%d): %v", src, dst, err)
			}
			if moved != int64(len(payload)) {
				t.Fatalf("moved %d bytes, want %d", moved, len(payload))
			}
			got := make([]byte, len(payload))
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("data corrupted by migration")
			}
			usage := r.m.TierUsage()
			if usage[src] != 0 {
				t.Fatalf("source tier still accounts %d bytes", usage[src])
			}
			if usage[dst] < int64(len(payload)) {
				t.Fatalf("dest tier accounts %d bytes", usage[dst])
			}
		})
	}
}

func TestMigrationPunchesSource(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	payload := bytes.Repeat([]byte{9}, 128*1024)
	f := writeFile(t, r.m, "/p", payload)
	defer f.Close()

	novaFS := r.m.Tiers()[0].FS // fastest = nova
	if _, err := r.m.Migrate("/p", r.ids.pm, r.ids.ssd); err != nil {
		t.Fatal(err)
	}
	// The underlying PM file must have been hole-punched.
	fi, err := novaFS.Stat("/p")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Blocks != 0 {
		t.Fatalf("PM sparse file still holds %d bytes after migration", fi.Blocks)
	}
}

// A file whose size is not page-aligned leaves nothing on the source tier
// either: the source punch reaches EOF in mid-page and frees the ragged
// last page instead of copying it, so the orphan scrub finds nothing.
func TestMigrationPunchesRaggedSource(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/p", bytes.Repeat([]byte{9}, 10_000))
	defer f.Close()
	if _, err := r.m.Migrate("/p", r.ids.pm, r.ids.ssd); err != nil {
		t.Fatal(err)
	}
	fi, err := r.m.Tiers()[0].FS.Stat("/p")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Blocks != 0 {
		t.Fatalf("PM copy of a 10,000-byte file still holds %d bytes after migration", fi.Blocks)
	}
	if n, err := r.m.ScrubOrphans(true); err != nil || n != 0 {
		t.Fatalf("ScrubOrphans reclaimed %d bytes (%v), want 0", n, err)
	}
	got := make([]byte, 10_000)
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{9}, 10_000)) {
		t.Fatalf("migrated file reads wrong: %v", err)
	}
}

func TestMigrateRangePartial(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	payload := bytes.Repeat([]byte{4}, 64*1024)
	f := writeFile(t, r.m, "/part", payload)
	defer f.Close()
	moved, err := r.m.MigrateRange("/part", r.ids.pm, r.ids.ssd, 16384, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 16384 {
		t.Fatalf("moved %d", moved)
	}
	usage := r.m.TierUsage()
	if usage[r.ids.pm] != 64*1024-16384 || usage[r.ids.ssd] != 16384 {
		t.Fatalf("usage after partial migration: %v", usage)
	}
	got := make([]byte, len(payload))
	f.ReadAt(got, 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("partial migration corrupted data")
	}
}

func TestOCCDetectsConcurrentWrites(t *testing.T) {
	// A writer racing the migration must trigger conflict handling, and the
	// final contents must reflect the writer (no lost updates).
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	const size = 4 << 20
	payload := bytes.Repeat([]byte{0xAA}, size)
	f := writeFile(t, r.m, "/race", payload)
	defer f.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stamp := bytes.Repeat([]byte{0xBB}, 4096)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			off := int64(i%1024) * 4096
			if _, err := f.WriteAt(stamp, off); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	if _, err := r.m.Migrate("/race", r.ids.pm, r.ids.ssd); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Every byte is 0xAA or 0xBB; nothing torn or zeroed.
	got := make([]byte, size)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xAA && b != 0xBB {
			t.Fatalf("byte %d = %#x after racing migration", i, b)
		}
	}
}

func TestOCCRetryThenCommit(t *testing.T) {
	// Inject one racing write after the first copy round: the OCC
	// Synchronizer must detect the conflict, retry only the dirtied block,
	// and still produce correct contents.
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	const size = 256 * 1024
	f := writeFile(t, r.m, "/retry", bytes.Repeat([]byte{0xAA}, size))
	defer f.Close()

	r.m.SetMigrationInterleave(func(round int) {
		if round == 0 {
			if _, err := f.WriteAt(bytes.Repeat([]byte{0xBB}, 4096), 8192); err != nil {
				t.Errorf("racing write: %v", err)
			}
		}
	})
	moved, err := r.m.Migrate("/retry", r.ids.pm, r.ids.ssd)
	if err != nil {
		t.Fatal(err)
	}
	if moved != size {
		t.Fatalf("moved %d, want %d", moved, size)
	}
	occ := r.m.OCC()
	if occ.Conflicts != 1 || occ.Retries != 1 || occ.LockFallbacks != 0 {
		t.Fatalf("OCC = %+v, want exactly one conflict+retry, no fallback", occ)
	}
	got := make([]byte, size)
	f.ReadAt(got, 0)
	for i, b := range got {
		want := byte(0xAA)
		if i >= 8192 && i < 12288 {
			want = 0xBB
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
	// Everything must live on the SSD tier now, including the retried block.
	usage := r.m.TierUsage()
	if usage[r.ids.pm] != 0 || usage[r.ids.ssd] != size {
		t.Fatalf("usage = %v", usage)
	}
}

func TestOCCLockFallbackUnderConstantConflict(t *testing.T) {
	// A write injected after *every* copy round exhausts the bounded
	// retries and must push the OCC Synchronizer into its lock-based
	// fallback — the §2.4 finite-completion guarantee.
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	const size = 256 * 1024
	f := writeFile(t, r.m, "/storm", bytes.Repeat([]byte{1}, size))
	defer f.Close()

	var injected int
	r.m.SetMigrationInterleave(func(round int) {
		injected++
		// Always dirty the same block so every retry round re-conflicts.
		if _, err := f.WriteAt([]byte{byte(round + 2)}, 0); err != nil {
			t.Errorf("racing write: %v", err)
		}
	})
	moved, err := r.m.Migrate("/storm", r.ids.pm, r.ids.ssd)
	if err != nil {
		t.Fatal(err)
	}
	if moved != size {
		t.Fatalf("moved %d, want %d", moved, size)
	}
	occ := r.m.OCC()
	if occ.LockFallbacks != 1 {
		t.Fatalf("OCC = %+v, want exactly one lock fallback", occ)
	}
	if occ.Retries != 3 { // default MigrationRetries
		t.Fatalf("retries = %d, want 3", occ.Retries)
	}
	if injected != 4 { // initial round + 3 retries
		t.Fatalf("hook ran %d times", injected)
	}
	usage := r.m.TierUsage()
	if usage[r.ids.pm] != 0 || usage[r.ids.ssd] != size {
		t.Fatalf("usage = %v", usage)
	}
}

func TestConcurrentMigrationRejected(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/dup", bytes.Repeat([]byte{1}, 8<<20))
	defer f.Close()
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.m.Migrate("/dup", r.ids.pm, r.ids.ssd)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var busy, ok int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrMigrationActive):
			busy++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok < 1 {
		t.Fatalf("no migration succeeded (ok=%d busy=%d)", ok, busy)
	}
}

func TestMigrateNoDataOnSource(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/none", []byte("on pm"))
	defer f.Close()
	moved, err := r.m.Migrate("/none", r.ids.ssd, r.ids.hdd)
	if err != nil || moved != 0 {
		t.Fatalf("empty-source migration = %d, %v", moved, err)
	}
}

func TestMigrateSameTierNoop(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	f := writeFile(t, r.m, "/same", []byte("x"))
	defer f.Close()
	moved, err := r.m.Migrate("/same", r.ids.pm, r.ids.pm)
	if err != nil || moved != 0 {
		t.Fatalf("same-tier migration = %d, %v", moved, err)
	}
}

func TestDrainAndRemoveTier(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	for i := 0; i < 5; i++ {
		f := writeFile(t, r.m, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{byte(i)}, 32*1024))
		f.Close()
	}
	if err := r.m.RemoveTier(r.ids.pm); !errors.Is(err, ErrTierBusy) {
		t.Fatalf("RemoveTier on loaded tier err = %v", err)
	}
	moved, err := r.m.DrainTier(r.ids.pm, r.ids.ssd)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 5*32*1024 {
		t.Fatalf("drained %d bytes", moved)
	}
	if err := r.m.RemoveTier(r.ids.pm); err != nil {
		t.Fatalf("RemoveTier after drain: %v", err)
	}
	// Data still readable from the remaining tiers.
	f, err := r.m.Open("/f3")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, 32*1024)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{3}, 32*1024)) {
		t.Fatal("data lost after tier removal")
	}
	if len(r.m.Tiers()) != 2 {
		t.Fatalf("tiers = %d", len(r.m.Tiers()))
	}
	if _, err := r.m.Migrate("/f3", r.ids.pm, r.ids.ssd); !errors.Is(err, ErrUnknownTier) {
		t.Fatalf("migration to removed tier err = %v", err)
	}
}
