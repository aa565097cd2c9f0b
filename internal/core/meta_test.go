package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/journal"
	"muxfs/internal/policy"
)

func TestMetaJournalCompaction(t *testing.T) {
	// A tiny meta device forces journal compaction; state must survive
	// compaction + crash + recovery.
	r := newRigSmallMeta(t, 256<<10) // 256 KiB meta journal
	f := writeFile(t, r.m, "/churn", nil)
	defer f.Close()
	// Each write queues ~2 records (~90 B); push well past 1 MiB of
	// records with periodic syncs so flushes hit the journal.
	buf := bytes.Repeat([]byte{7}, 4096)
	for i := 0; i < 4000; i++ {
		if _, err := f.WriteAt(buf, int64(i%64)*4096); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%200 == 0 {
			if err := f.Sync(); err != nil {
				t.Fatalf("sync %d: %v", i, err)
			}
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatalf("recover after compaction: %v", err)
	}
	fi, err := r.m.Stat("/churn")
	if err != nil || fi.Size != 64*4096 {
		t.Fatalf("stat after recovery: %+v, %v", fi, err)
	}
	f2, err := r.m.Open("/churn")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got := make([]byte, 4096)
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("data wrong after compaction+recovery")
	}
}

// newRigSmallMeta builds a rig whose meta journal device is tiny, so meta
// journal compaction triggers under modest churn.
func newRigSmallMeta(t *testing.T, metaBytes int64) *rig {
	t.Helper()
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	prof := device.PMProfile("muxmeta-tiny")
	prof.Capacity = metaBytes
	r.meta = device.New(prof, r.clk)
	ml, err := newMetaLog(r.meta)
	if err != nil {
		t.Fatal(err)
	}
	r.m.meta = ml
	return r
}

func TestRecoverDistributedFile(t *testing.T) {
	// A file with blocks on all three tiers must recover its full BLT.
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	payload := bytes.Repeat([]byte{0xD5}, 96*1024)
	f := writeFile(t, r.m, "/spread", payload)
	if _, err := r.m.MigrateRange("/spread", 0, 1, 32*1024, 32*1024); err != nil {
		t.Fatal(err)
	}
	if _, err := r.m.MigrateRange("/spread", 0, 2, 64*1024, 32*1024); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	usageBefore := r.m.TierUsage()

	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatal(err)
	}
	usageAfter := r.m.TierUsage()
	for id, want := range usageBefore {
		if usageAfter[id] != want {
			t.Fatalf("tier %d usage %d -> %d across recovery", id, want, usageAfter[id])
		}
	}
	f2, err := r.m.Open("/spread")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("distributed file corrupted across recovery")
	}
}

func TestUnsyncedMigrationLostButConsistent(t *testing.T) {
	// Crash right after a migration with no sync: the BLT may roll back to
	// the pre-migration state, but the file must read correctly either way
	// (the migration never punches before the destination is durable).
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	payload := bytes.Repeat([]byte{0x3C}, 64*1024)
	f := writeFile(t, r.m, "/mv", payload)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.m.Migrate("/mv", 0, 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// No sync after the migration.
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatal(err)
	}
	f2, err := r.m.Open("/mv")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("file unreadable after crashed migration")
	}
}

func TestConcurrentStress(t *testing.T) {
	// Many goroutines hammering different files + migrations + policy runs;
	// run under -race for the full effect.
	r := newRig(t, policy.DefaultLRU(), false)
	const nFiles = 8
	var files []string
	for i := 0; i < nFiles; i++ {
		path := fmt.Sprintf("/stress%d", i)
		f := writeFile(t, r.m, path, bytes.Repeat([]byte{byte(i)}, 128*1024))
		f.Close()
		files = append(files, path)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				path := files[(w+i)%nFiles]
				f, err := r.m.Open(path)
				if err != nil {
					errs <- err
					return
				}
				buf := make([]byte, 4096)
				if _, err := f.ReadAt(buf, int64(i%32)*4096); err != nil {
					errs <- fmt.Errorf("read %s: %w", path, err)
					f.Close()
					return
				}
				if _, err := f.WriteAt([]byte{byte(w)}, int64(i)*517); err != nil {
					errs <- fmt.Errorf("write %s: %w", path, err)
					f.Close()
					return
				}
				f.Close()
			}
		}(w)
	}
	// Migration churn in parallel.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			path := files[i%nFiles]
			src, dst := i%3, (i+1)%3
			if _, err := r.m.Migrate(path, src, dst); err != nil {
				// Concurrent migration rejections are expected; real
				// failures are not.
				continue
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := r.m.RunPolicyOnce(); err != nil {
				errs <- fmt.Errorf("policy: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every file still fully readable with a sane prefix byte.
	for i, path := range files {
		f, err := r.m.Open(path)
		if err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		buf := make([]byte, 128*1024)
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("file %d read: %v", i, err)
		}
		f.Close()
	}
}

// Replay applies the meta log in batches as it reads it. A log of several
// batches, with removes and renames between them and files on two tiers,
// recovers every surviving file's bytes, drops the removed ones and
// leaves tier usage equal to the BLTs, at one and at two workers.
func TestReplayBatchesAcrossRemovesAndRenames(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			r := newRig(t, policy.Pinned{Tier: 0}, true)
			r.m.meta.ckptBytes = 1 << 60 // replay the whole history
			// Three per-inode records a file: the removes cut the log into
			// batches too small for two workers, and one long enough to
			// fill a batch.
			const files = 3000
			removeAt := map[int]bool{10: true, 20: true, 2500: true, 2501: true}
			paths := map[int]string{}
			data := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 6000) }
			for i := 0; i < files; i++ {
				p := fmt.Sprintf("/f%d", i)
				writeFile(t, r.m, p, data(i)).Close()
				paths[i] = p
				switch {
				case removeAt[i]:
					if err := r.m.Remove(paths[i-5]); err != nil {
						t.Fatal(err)
					}
					delete(paths, i-5)
				case i%5 == 1:
					np := fmt.Sprintf("/g%d", i)
					if err := r.m.Rename(p, np); err != nil {
						t.Fatal(err)
					}
					paths[i] = np
				case i%7 == 2:
					if _, err := r.m.MigrateRange(p, 0, 1, 0, 4096); err != nil {
						t.Fatal(err)
					}
				}
				if i%256 == 255 {
					if err := r.m.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := r.m.Sync(); err != nil {
				t.Fatal(err)
			}
			usedBefore := []int64{r.m.tierRec(0).used.Load(), r.m.tierRec(1).used.Load()}

			r.m.SetRecoveryWorkers(workers)
			r.m.Crash()
			if err := r.m.Recover(); err != nil {
				t.Fatal(err)
			}
			if got := []int64{r.m.tierRec(0).used.Load(), r.m.tierRec(1).used.Load()}; got[0] != usedBefore[0] || got[1] != usedBefore[1] {
				t.Fatalf("tier usage after recovery %v, before the crash %v", got, usedBefore)
			}
			if rep := r.m.Fsck(); !rep.OK() {
				t.Fatalf("fsck: %v", rep.Problems[:min(3, len(rep.Problems))])
			}
			for i := 0; i < files; i++ {
				p, live := paths[i]
				if !live {
					if _, err := r.m.Stat(fmt.Sprintf("/f%d", i)); err == nil {
						t.Fatalf("removed /f%d is back after recovery", i)
					}
					continue
				}
				f, err := r.m.Open(p)
				if err != nil {
					t.Fatalf("open %s: %v", p, err)
				}
				got := make([]byte, 6000)
				n, err := f.ReadAt(got, 0)
				f.Close()
				if n != len(got) || !bytes.Equal(got, data(i)) {
					t.Fatalf("%s read %d bytes (%v), want its 6000", p, n, err)
				}
			}
		})
	}
}

// A write can log a new file's extent before the file's create record
// (Create logs after it publishes the file). Replay keeps such a record
// buffered across a batch boundary until the create arrives.
func TestReplayRecordBeforeItsCreate(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	writeFile(t, r.m, "/old", make([]byte, 4096)).Close()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	old, err := r.m.lookupFile("/old")
	if err != nil {
		t.Fatal(err)
	}
	const ino = 1 << 20 // no file has it yet
	var recs fsrec.Batch
	recs.Add(fsrec.Op{Type: fsrec.OpSizeTime, Ino: ino, Size: 777})
	for i := 0; i < replayBatch; i++ { // fill a batch between the two
		recs.Add(fsrec.Op{Type: fsrec.OpSizeTime, Ino: old.ino, Size: 4096})
	}
	recs.Add(fsrec.Op{Type: fsrec.OpCreate, Ino: ino, Path: "/new", Mode: 0o644})
	if err := r.m.meta.jnl.Commit(recs.Recs); err != nil {
		t.Fatal(err)
	}
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatal(err)
	}
	fi, err := r.m.Stat("/new")
	if err != nil || fi.Size != 777 {
		t.Fatalf("stat /new after recovery: %+v, %v; want size 777", fi, err)
	}
}

// The meta journal is input from outside the program. A committed record
// that names a tier the Mux never had fails Recover with an error; it must
// not index past the tier table.
func TestReplayRecordNamesUnknownTier(t *testing.T) {
	for _, c := range []struct {
		name string
		rec  func(ino uint64) journal.Record
	}{
		{"extent past the table", func(ino uint64) journal.Record {
			r, _ := fsrec.Op{Type: fsrec.OpExtent, Ino: ino, N: 4096, Delta: 9, Size: 4096}.AppendRecord(nil)
			return r
		}},
		{"extent on a negative tier", func(ino uint64) journal.Record {
			r, _ := fsrec.Op{Type: fsrec.OpExtent, Ino: ino, N: 4096, Delta: -1, Size: 4096}.AppendRecord(nil)
			return r
		}},
		{"host past the table", func(ino uint64) journal.Record {
			return journal.Record{Type: opMuxHost, A: int64(ino), B: 9}
		}},
		{"replica on a negative tier", func(ino uint64) journal.Record {
			return journal.Record{Type: opMuxReplica, A: int64(ino), B: -7}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, policy.Pinned{Tier: 0}, true)
			writeFile(t, r.m, "/f", make([]byte, 4096)).Close()
			if err := r.m.Sync(); err != nil {
				t.Fatal(err)
			}
			f, err := r.m.lookupFile("/f")
			if err != nil {
				t.Fatal(err)
			}
			if err := r.m.meta.jnl.Commit([]journal.Record{c.rec(f.ino)}); err != nil {
				t.Fatal(err)
			}
			r.m.Crash()
			if err := r.m.Recover(); err == nil || !strings.Contains(err.Error(), "unknown tier") {
				t.Fatalf("Recover = %v, want an unknown-tier error", err)
			}
		})
	}
}

// A handle opened before a Remove can still write, so the log can hold a
// removed file's records after its remove record. Replay drops them.
func TestReplayRecordsAfterRemove(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	fh := writeFile(t, r.m, "/gone", make([]byte, 8192))
	defer fh.Close()
	writeFile(t, r.m, "/kept", []byte("kept")).Close()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Remove("/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(make([]byte, 4096), 16384); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if _, err := r.m.Stat("/gone"); err == nil {
		t.Fatal("removed /gone is back after recovery")
	}
	if fi, err := r.m.Stat("/kept"); err != nil || fi.Size != 4 {
		t.Fatalf("stat /kept: %+v, %v", fi, err)
	}
	if _, err := r.m.ScrubOrphans(true); err != nil {
		t.Fatal(err)
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}
