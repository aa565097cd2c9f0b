package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/fs/extlite"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/fstest"
	"muxfs/internal/policy"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// newSweepTarget builds the full Mux stack — three tiers plus the metadata
// journal device — with ONE shared crash point attached to all four devices,
// so the sweep index orders durability steps globally across the whole
// stack: a crash between "tier synced" and "meta journal committed" is just
// another index in the sweep. Placement is pinned to the PM tier so the
// device-operation sequence replays deterministically.
func newSweepTarget(t *testing.T) *fstest.SweepTarget {
	t.Helper()
	clk := simclock.New()
	cp := device.NewCrashPoint()

	pm := device.New(device.PMProfile("pmem0"), clk)
	ssd := device.New(device.SSDProfile("ssd0"), clk)
	hddProf := device.HDDProfile("hdd0")
	hddProf.Capacity = 1 << 30
	hdd := device.New(hddProf, clk)
	metaProf := device.PMProfile("muxmeta")
	metaProf.Capacity = 16 << 20
	meta := device.New(metaProf, clk)
	for _, d := range []*device.Device{pm, ssd, hdd, meta} {
		d.SetCrashPoint(cp)
	}

	m, err := New(Config{Name: "mux", Clock: clk, Policy: policy.Pinned{}, MetaDevice: meta})
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
	ext, err := extlite.New("ext4@hdd0", hdd)
	if err != nil {
		t.Fatal(err)
	}
	if id := m.AddTier(nova, pm.Profile()); id != 0 {
		t.Fatalf("pm tier id = %d, want 0", id)
	}
	if id := m.AddTier(xfs, ssd.Profile()); id != 1 {
		t.Fatalf("ssd tier id = %d, want 1", id)
	}
	if id := m.AddTier(ext, hdd.Profile()); id != 2 {
		t.Fatalf("hdd tier id = %d, want 2", id)
	}

	return &fstest.SweepTarget{
		FS: m,
		CP: cp,
		Remount: func() (vfs.FileSystem, error) {
			m.Crash()
			if err := m.Recover(); err != nil {
				return nil, err
			}
			return m, nil
		},
		// Recovery replay is read-only (the sweep asserts it); orphan
		// reclamation and mirror repair are the journaled post-recovery
		// phase.
		PostRecover: func(fs vfs.FileSystem) error {
			_, err := fs.(*Mux).ScrubOrphans(true)
			return err
		},
		Check: func(fs vfs.FileSystem) error {
			mm := fs.(*Mux)
			if rep := mm.Fsck(); !rep.OK() {
				return fmt.Errorf("fsck: %v", rep.Problems)
			}
			// After the repair pass, a dry-run scrub must find nothing:
			// no leaked extents, no double-referenced bytes, no diverged
			// mirrors.
			n, err := mm.ScrubOrphans(false)
			if err != nil {
				return err
			}
			if n != 0 {
				return fmt.Errorf("scrub dry-run found %d orphaned/diverged bytes after repair", n)
			}
			return nil
		},
	}
}

// sweepSeq mirrors the deterministic payload generator the fstest scenarios
// use for their own files.
func sweepSeq(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

func sweepFile(t *testing.T, fs vfs.FileSystem, path string, payload []byte) {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatalf("setup create %s: %v", path, err)
	}
	defer f.Close()
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("setup write %s: %v", path, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("setup sync %s: %v", path, err)
	}
}

// tierBytes sums the backing extents path occupies on one tier (0 when the
// tier file does not exist).
func tierBytes(t *testing.T, m *Mux, tier int, path string) int64 {
	t.Helper()
	for _, tr := range m.Tiers() {
		if tr.ID != tier {
			continue
		}
		h, err := tr.FS.Open(path)
		if err != nil {
			return 0
		}
		defer h.Close()
		exts, err := h.Extents()
		if err != nil {
			t.Fatalf("extents of %s on tier %d: %v", path, tier, err)
		}
		var n int64
		for _, e := range exts {
			n += e.Len
		}
		return n
	}
	t.Fatalf("tier %d not found", tier)
	return 0
}

// readTierFile reads path's raw contents from one tier's file system (the
// mirror inspection path — bypasses Mux routing).
func readTierFile(t *testing.T, m *Mux, tier int, path string) []byte {
	t.Helper()
	for _, tr := range m.Tiers() {
		if tr.ID == tier {
			got, err := fstest.ReadFileAt(tr.FS, path)
			if err != nil {
				t.Fatalf("read %s on tier %d: %v", path, tier, err)
			}
			return got
		}
	}
	t.Fatalf("tier %d not found", tier)
	return nil
}

// muxSweepScenarios are the stack-specific operations the generic namespace
// suite cannot express: cross-tier migration and the replica lifecycle.
// Each is swept at every durability-step index like the generic ops.
func muxSweepScenarios() []fstest.SweepScenario {
	migPayload := sweepSeq(64<<10, 1)
	repPayload := sweepSeq(32<<10, 2)
	overlay := bytes.Repeat([]byte{0xA5}, 8<<10)
	keepPayload := sweepSeq(16<<10, 3)

	setupKeep := func(t *testing.T, fs vfs.FileSystem, dir string) map[string][]byte {
		t.Helper()
		if err := fs.Mkdir(dir); err != nil {
			t.Fatalf("setup mkdir %s: %v", dir, err)
		}
		keep := dir + "/keep"
		sweepFile(t, fs, keep, keepPayload)
		return map[string][]byte{keep: keepPayload}
	}

	var scens []fstest.SweepScenario

	scens = append(scens, fstest.SweepScenario{
		Name: "MigrateRange",
		Setup: func(t *testing.T, fs vfs.FileSystem) map[string][]byte {
			model := setupKeep(t, fs, "/mig")
			sweepFile(t, fs, "/mig/vic", migPayload)
			return model
		},
		Op: func(fs vfs.FileSystem) error {
			_, err := fs.(*Mux).MigrateRange("/mig/vic", 0, 2, 0, -1)
			return err
		},
		Check: func(t *testing.T, fs vfs.FileSystem, i int64, completed bool) {
			t.Helper()
			ctx := fmt.Sprintf("i=%d", i)
			got, err := fstest.ReadFileAt(fs, "/mig/vic")
			if err != nil || !bytes.Equal(got, migPayload) {
				t.Fatalf("%s: migration crash lost data: %v", ctx, err)
			}
			if completed {
				// Committed migration + durable reclaim: nothing of the
				// file may remain on the source tier.
				if n := tierBytes(t, fs.(*Mux), 0, "/mig/vic"); n != 0 {
					t.Fatalf("%s: completed migration left %d bytes on the source tier", ctx, n)
				}
			}
		},
	})

	// One policy round of three moves on distinct files, PM→SSD and SSD→PM,
	// run through one migration batch — its copies, tier barrier, commits,
	// meta flush and punches are all swept. The first validation sees a
	// rewrite of identical bytes, so one move conflicts and retries.
	roundFiles := []string{"/round/a", "/round/b", "/round/c"}
	roundPayload := func(i int) []byte { return sweepSeq(48<<10, byte(10+i)) }
	scens = append(scens, fstest.SweepScenario{
		Name: "PolicyRound",
		Setup: func(t *testing.T, fs vfs.FileSystem) map[string][]byte {
			model := setupKeep(t, fs, "/round")
			for i, p := range roundFiles {
				sweepFile(t, fs, p, roundPayload(i))
			}
			if _, err := fs.(*Mux).Migrate("/round/c", 0, 1); err != nil {
				t.Fatalf("setup migrate: %v", err)
			}
			return model
		},
		Op: func(fs vfs.FileSystem) error {
			return policyRound(fs.(*Mux), roundFiles, roundPayload(2))
		},
		Check: func(t *testing.T, fs vfs.FileSystem, i int64, completed bool) {
			t.Helper()
			m := fs.(*Mux)
			for k, p := range roundFiles {
				got, err := fstest.ReadFileAt(fs, p)
				if err != nil || !bytes.Equal(got, roundPayload(k)) {
					t.Fatalf("i=%d: policy-round crash changed %s: %v", i, p, err)
				}
			}
			if completed {
				for k, p := range roundFiles {
					src := 0
					if k == 2 {
						src = 1
					}
					if n := tierBytes(t, m, src, p); n != 0 {
						t.Fatalf("i=%d: completed round left %d bytes of %s on tier %d", i, n, p, src)
					}
				}
			}
		},
	})

	scens = append(scens, fstest.SweepScenario{
		Name: "SetReplica",
		Setup: func(t *testing.T, fs vfs.FileSystem) map[string][]byte {
			model := setupKeep(t, fs, "/rep")
			sweepFile(t, fs, "/rep/vic", repPayload)
			return model
		},
		Op: func(fs vfs.FileSystem) error {
			return fs.(*Mux).SetReplica("/rep/vic", 2)
		},
		Check: func(t *testing.T, fs vfs.FileSystem, i int64, completed bool) {
			t.Helper()
			ctx := fmt.Sprintf("i=%d", i)
			m := fs.(*Mux)
			got, err := fstest.ReadFileAt(fs, "/rep/vic")
			if err != nil || !bytes.Equal(got, repPayload) {
				t.Fatalf("%s: SetReplica crash damaged authoritative data: %v", ctx, err)
			}
			rep, err := m.Replica("/rep/vic")
			if err != nil {
				t.Fatalf("%s: Replica: %v", ctx, err)
			}
			switch rep {
			case 2:
				// Committed record: the mirror was synced before the record
				// flushed, so it must be complete and byte-identical.
				if mir := readTierFile(t, m, 2, "/rep/vic"); !bytes.Equal(mir, repPayload) {
					t.Fatalf("%s: committed replica record but mirror diverges (%d bytes)", ctx, len(mir))
				}
			case -1:
				// Record never committed: the half-built mirror is an orphan
				// the scrub must already have reclaimed.
				if n := tierBytes(t, m, 2, "/rep/vic"); n != 0 {
					t.Fatalf("%s: uncommitted mirror left %d orphaned bytes after scrub", ctx, n)
				}
			default:
				t.Fatalf("%s: replica tier = %d, want 2 or -1", ctx, rep)
			}
			if completed && rep != 2 {
				t.Fatalf("%s: fully synced SetReplica rolled back", ctx)
			}
		},
	})

	scens = append(scens, fstest.SweepScenario{
		Name: "ClearReplica",
		Setup: func(t *testing.T, fs vfs.FileSystem) map[string][]byte {
			model := setupKeep(t, fs, "/rep")
			sweepFile(t, fs, "/rep/vic", repPayload)
			m := fs.(*Mux)
			if err := m.SetReplica("/rep/vic", 2); err != nil {
				t.Fatalf("setup SetReplica: %v", err)
			}
			if err := m.Sync(); err != nil {
				t.Fatalf("setup sync: %v", err)
			}
			return model
		},
		Op: func(fs vfs.FileSystem) error {
			return fs.(*Mux).ClearReplica("/rep/vic")
		},
		Check: func(t *testing.T, fs vfs.FileSystem, i int64, completed bool) {
			t.Helper()
			ctx := fmt.Sprintf("i=%d", i)
			m := fs.(*Mux)
			got, err := fstest.ReadFileAt(fs, "/rep/vic")
			if err != nil || !bytes.Equal(got, repPayload) {
				t.Fatalf("%s: ClearReplica crash damaged authoritative data: %v", ctx, err)
			}
			rep, err := m.Replica("/rep/vic")
			if err != nil {
				t.Fatalf("%s: Replica: %v", ctx, err)
			}
			switch rep {
			case 2:
				// Clear record never committed — record-first ordering means
				// not one mirror byte may have been punched yet.
				if mir := readTierFile(t, m, 2, "/rep/vic"); !bytes.Equal(mir, repPayload) {
					t.Fatalf("%s: un-cleared replica's mirror already damaged", ctx)
				}
			case -1:
				// Clear committed: whatever the punch got to, the scrub
				// reclaims the rest.
				if n := tierBytes(t, m, 2, "/rep/vic"); n != 0 {
					t.Fatalf("%s: cleared mirror left %d orphaned bytes after scrub", ctx, n)
				}
			default:
				t.Fatalf("%s: replica tier = %d, want 2 or -1", ctx, rep)
			}
			if completed && rep != -1 {
				t.Fatalf("%s: fully synced ClearReplica rolled back", ctx)
			}
		},
	})

	scens = append(scens, fstest.SweepScenario{
		Name: "ReplicatedWrite",
		Setup: func(t *testing.T, fs vfs.FileSystem) map[string][]byte {
			model := setupKeep(t, fs, "/rep")
			sweepFile(t, fs, "/rep/vic", repPayload)
			m := fs.(*Mux)
			if err := m.SetReplica("/rep/vic", 2); err != nil {
				t.Fatalf("setup SetReplica: %v", err)
			}
			if err := m.Sync(); err != nil {
				t.Fatalf("setup sync: %v", err)
			}
			return model
		},
		Op: func(fs vfs.FileSystem) error {
			f, err := fs.Open("/rep/vic")
			if err != nil {
				return err
			}
			defer f.Close()
			if _, err := f.WriteAt(overlay, 4096); err != nil {
				return err
			}
			return f.Sync()
		},
		Check: func(t *testing.T, fs vfs.FileSystem, i int64, completed bool) {
			t.Helper()
			ctx := fmt.Sprintf("i=%d", i)
			m := fs.(*Mux)
			got, err := fstest.ReadFileAt(fs, "/rep/vic")
			if err != nil || int64(len(got)) != 32<<10 {
				t.Fatalf("%s: replicated write crash damaged file: %v (%d bytes)", ctx, err, len(got))
			}
			// Outside the overwritten range: original, always. Inside: each
			// block old or new, never torn.
			if !bytes.Equal(got[:4096], repPayload[:4096]) ||
				!bytes.Equal(got[4096+len(overlay):], repPayload[4096+len(overlay):]) {
				t.Fatalf("%s: bytes outside replicated write corrupted", ctx)
			}
			for off := 4096; off < 4096+len(overlay); off += 4096 {
				blk := got[off : off+4096]
				if !bytes.Equal(blk, repPayload[off:off+4096]) && !bytes.Equal(blk, overlay[off-4096:off-4096+4096]) {
					t.Fatalf("%s: replicated write block at %d torn", ctx, off)
				}
			}
			if completed && !bytes.Equal(got[4096:4096+len(overlay)], overlay) {
				t.Fatalf("%s: fully synced replicated write not applied", ctx)
			}
			// The mirror-ledger write window: the PM tier persists the write
			// before the mirror tier syncs, so a crash in between leaves a
			// committed replica record naming a stale mirror. The scrub's
			// verify+repair pass must have re-converged it.
			rep, err := m.Replica("/rep/vic")
			if err != nil {
				t.Fatalf("%s: Replica: %v", ctx, err)
			}
			if rep == 2 {
				if mir := readTierFile(t, m, 2, "/rep/vic"); !bytes.Equal(mir, got) {
					t.Fatalf("%s: mirror diverges from authoritative contents after scrub", ctx)
				}
			}
		},
	})

	return scens
}

// policyRound runs one serial policy round over files: files[0] and
// files[1] PM→SSD, files[2] SSD→PM. The first OCC validation finds
// files[2]'s first block rewritten with first (its own bytes), so that
// move conflicts once and retries. Its retry syncs only PM, so the SSD
// copies stay durable through the tier barrier alone.
func policyRound(m *Mux, files []string, first []byte) error {
	m.SetMigrationWorkers(1) // serial copies keep the device op order fixed
	m.SetPolicy(policy.Func{PolicyName: "round", Plan: func([]policy.TierInfo, []policy.FileStat, time.Duration) []policy.Move {
		return []policy.Move{
			{Path: files[0], SrcTier: 0, DstTier: 1, N: -1},
			{Path: files[1], SrcTier: 0, DstTier: 1, N: -1},
			{Path: files[2], SrcTier: 1, DstTier: 0, N: -1, Promote: true},
		}
	}})
	dirtied := false
	m.SetMigrationInterleave(func(int) {
		if dirtied {
			return
		}
		dirtied = true
		if h, err := m.Open(files[2]); err == nil {
			_, _ = h.WriteAt(first[:BlockSize], 0)
			h.Close()
		}
	})
	defer m.SetMigrationInterleave(nil)
	retries := m.OCC().Retries
	st, err := m.RunPolicyOnce()
	if err == nil && (st.Executed != len(files) || m.OCC().Retries != retries+1) {
		return fmt.Errorf("policy round executed %d moves with %d retries, want %d and 1",
			st.Executed, m.OCC().Retries-retries, len(files))
	}
	return err
}

// TestMuxCrashSweep sweeps the full Mux stack: the generic namespace suite
// plus migration and replica lifecycle ops, crashed at every durability
// step across all four devices, with fsck + orphan scrub asserting the
// consistency contract at each point.
func TestMuxCrashSweep(t *testing.T) {
	fstest.RunCrashSweep(t, newSweepTarget, muxSweepScenarios()...)
}

// TestMuxCrashStorm hammers the stack with concurrent writers between
// power-cycles; under -race this exercises parallel journal replay and
// parallel fsck against foreground state.
func TestMuxCrashStorm(t *testing.T) {
	fstest.RunCrashStorm(t, newSweepTarget)
}
