package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// stripeFile creates path with data pinned on PM, then migrates the middle
// third to SSD and the last third to HDD, returning the open handle to a
// file deliberately striped across all three tiers.
func stripeFile(t *testing.T, r *rig, path string, data []byte) vfs.File {
	t.Helper()
	f := writeFile(t, r.m, path, data)
	third := int64(len(data)) / 3 / BlockSize * BlockSize
	if _, err := r.m.MigrateRange(path, r.ids.pm, r.ids.ssd, third, third); err != nil {
		t.Fatalf("stage SSD third: %v", err)
	}
	if _, err := r.m.MigrateRange(path, r.ids.pm, r.ids.hdd, 2*third, -1); err != nil {
		t.Fatalf("stage HDD third: %v", err)
	}
	return f
}

func testPattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/257)
	}
	return p
}

// A short downward ReadAt that returns io.EOF with partial n (the sparse
// file on the tier is shorter than the mapped range) must zero the unread
// tail — stale caller-buffer bytes must never masquerade as file content.
func TestReadShortDownwardZerosTail(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	pattern := testPattern(8 * BlockSize)

	// Single-extent fast path: shrink the PM sparse file behind Mux's back.
	f := writeFile(t, r.m, "/short", pattern)
	defer f.Close()
	pm, err := r.m.tier(r.ids.pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.FS.Truncate("/short", 4*BlockSize); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xAA}, len(pattern))
	n, err := f.ReadAt(buf, 0)
	if err != nil || n != len(pattern) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf[:4*BlockSize], pattern[:4*BlockSize]) {
		t.Fatal("head bytes corrupted")
	}
	for i, b := range buf[4*BlockSize:] {
		if b != 0 {
			t.Fatalf("stale byte 0x%02x at tail offset %d, want 0", b, i)
		}
	}

	// Multi-tier plan path: stripe a second file, shrink the SSD sparse
	// file, and read across the whole stripe.
	g := stripeFile(t, r, "/short2", pattern)
	defer g.Close()
	third := int64(len(pattern)) / 3 / BlockSize * BlockSize
	ssd, err := r.m.tier(r.ids.ssd)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssd.FS.Truncate("/short2", third+BlockSize); err != nil {
		t.Fatal(err)
	}
	buf = bytes.Repeat([]byte{0xAA}, len(pattern))
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatalf("striped ReadAt: %v", err)
	}
	for i := third + BlockSize; i < 2*third; i++ {
		if buf[i] != 0 {
			t.Fatalf("stale byte 0x%02x at offset %d inside shortened SSD segment", buf[i], i)
		}
	}
	if !bytes.Equal(buf[:third+BlockSize], pattern[:third+BlockSize]) ||
		!bytes.Equal(buf[2*third:], pattern[2*third:]) {
		t.Fatal("bytes outside the shortened segment corrupted")
	}
}

// Parallel fan-out must be invisible except for wall-clock time: reads are
// byte-identical to serial dispatch and a spanning write leaves the same
// bytes and the same per-tier placement at every fan-out width.
func TestFanoutParity(t *testing.T) {
	const size = 96 * BlockSize
	pattern := testPattern(size)
	third := int64(size) / 3 / BlockSize * BlockSize
	patchOff := third - 2*BlockSize
	patch := bytes.Repeat([]byte{0x5C}, int(third)+4*BlockSize) // spans all three tiers

	type snap struct {
		content []byte
		usage   map[int]int64
	}
	run := func(width int) snap {
		r := newRigConfig(t, policy.Pinned{Tier: 0}, false, func(c *Config) { c.DataFanout = width })
		f := stripeFile(t, r, "/parity", pattern)
		defer f.Close()

		got := make([]byte, size)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("width %d: read: %v", width, err)
		}
		if !bytes.Equal(got, pattern) {
			t.Fatalf("width %d: read diverges from pattern", width)
		}
		if _, err := f.WriteAt(patch, patchOff); err != nil {
			t.Fatalf("width %d: spanning write: %v", width, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("width %d: sync: %v", width, err)
		}
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("width %d: readback: %v", width, err)
		}
		return snap{content: got, usage: r.m.TierUsage()}
	}

	base := run(1)
	want := append([]byte(nil), pattern...)
	copy(want[patchOff:], patch)
	if !bytes.Equal(base.content, want) {
		t.Fatal("serial baseline content wrong")
	}
	for _, w := range []int{2, 3, 8} {
		s := run(w)
		if !bytes.Equal(s.content, base.content) {
			t.Errorf("width %d: content diverges from serial", w)
		}
		for id, b := range base.usage {
			if s.usage[id] != b {
				t.Errorf("width %d: tier %d holds %d bytes, serial holds %d — placement not deterministic",
					w, id, s.usage[id], b)
			}
		}
	}
}

// TestFanoutStressRace races parallel multi-tier reads against writers,
// migration, fsync, and injected transient faults, then drives the PM tier
// into quarantine and verifies fan-out composes with replica fallback and
// drain. Run under -race; every successful read must observe the invariant
// content (writers rewrite the same pattern).
func TestFanoutStressRace(t *testing.T) {
	r := newRig(t, policy.Func{PolicyName: "fastest"}, false)
	r.m.retryBackoff = 5 * time.Microsecond

	const size = 96 * BlockSize
	pattern := testPattern(size)
	f := stripeFile(t, r, "/stress", pattern)
	defer f.Close()
	if err := r.m.SetReplica("/stress", r.ids.ssd); err != nil {
		t.Fatal(err)
	}
	third := int64(size) / 3 / BlockSize * BlockSize

	// Phase 1: transient noise on PM while readers, writers, a migrator,
	// and a syncer hammer the striped file. Individual op errors are
	// tolerated (retry budgets can exhaust); data corruption is not. The
	// middle third is excluded from byte verification while the migrator
	// shuttles it: a read whose plan predates a migration commit can
	// observe the already-punched source (a plan-snapshot race that
	// predates fan-out) — everything else must hold the pattern.
	r.pm.InjectFaults(device.FaultPlan{Seed: 11, ReadErrProb: 0.05, WriteErrProb: 0.05})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 16*BlockSize)
			for k := 0; k < 150; k++ {
				off := int64((w*5 + k) % 80 * BlockSize)
				n, err := f.ReadAt(buf, off)
				if err != nil {
					continue
				}
				for b := int64(0); b < int64(n); b += BlockSize {
					pos := off + b
					if pos >= third && pos < 2*third {
						continue // migrator territory
					}
					end := b + BlockSize
					if end > int64(n) {
						end = int64(n)
					}
					if !bytes.Equal(buf[b:end], pattern[pos:off+end]) {
						t.Errorf("reader %d: corrupt bytes at %d", w, pos)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				off := int64((w*11 + k) % 88 * BlockSize)
				f.WriteAt(pattern[off:off+8*BlockSize], off) // same bytes: content invariant
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			if k%2 == 0 {
				r.m.MigrateRange("/stress", r.ids.ssd, r.ids.hdd, third, third)
			} else {
				r.m.MigrateRange("/stress", r.ids.hdd, r.ids.ssd, third, third)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 30; k++ {
			f.Sync()
		}
	}()
	wg.Wait()

	// Phase 2: PM fails hard and sticky. The breaker quarantines it and
	// reads of PM-resident blocks are served by the SSD replica.
	r.pm.InjectFaults(device.FaultPlan{Seed: 12, ReadErrProb: 1, WriteErrProb: 1, Sticky: true})
	buf := make([]byte, size)
	served := false
	for k := 0; k < 8; k++ { // enough consecutive faults to charge the breaker
		if _, err := f.ReadAt(buf, 0); err == nil {
			served = true
		}
	}
	if !served {
		t.Fatal("no read served by replica fallback under sticky PM faults")
	}
	if !bytes.Equal(buf, pattern) {
		t.Fatal("replica-served read diverges from pattern")
	}
	if healthByID(r.m)[r.ids.pm].State != "quarantined" {
		t.Fatalf("PM state = %s under sticky faults, want quarantined", healthByID(r.m)[r.ids.pm].State)
	}
	// Writes drain the sick tier: quarantined segments redirect to a
	// healthy placement.
	if _, err := f.WriteAt(pattern[:third], 0); err != nil {
		t.Fatalf("drain write: %v", err)
	}
	if got := r.m.TierUsage()[r.ids.pm]; got != 0 {
		t.Fatalf("PM still holds %d bytes after drain write", got)
	}

	// Recovery: fault clears, cooldown passes, a probe closes the breaker,
	// and the final full overwrite + readback must be clean.
	r.pm.ClearFaults()
	r.clk.Advance(r.m.breakerCooldown + time.Millisecond)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("probe read: %v", err)
	}
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatalf("settling round: %v", err)
	}
	if _, err := f.WriteAt(pattern, 0); err != nil {
		t.Fatalf("final overwrite: %v", err)
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pattern) {
		t.Fatal("final readback diverges")
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}
