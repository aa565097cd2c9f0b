package journal

import (
	"bytes"
	"errors"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/simclock"
)

func newTestJournal(t *testing.T, size int64) (*Journal, *device.Device) {
	t.Helper()
	dev := device.New(device.PMProfile("pm0"), simclock.New())
	return New(dev, 0, size), dev
}

func TestCommitAndReplay(t *testing.T) {
	j, _ := newTestJournal(t, 1<<20)
	if err := j.Commit([]Record{
		{Type: 1, A: 10, B: 20, Payload: []byte("alpha")},
		{Type: 2, A: 30, B: 40},
	}); err != nil {
		t.Fatal(err)
	}

	var got []Record
	n, err := j.Replay(func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d txns, want 1", n)
	}
	if len(got) != 2 || got[0].Type != 1 || got[0].A != 10 || !bytes.Equal(got[0].Payload, []byte("alpha")) {
		t.Fatalf("records = %+v", got)
	}
	if got[1].Type != 2 || got[1].B != 40 || got[1].Payload != nil {
		t.Fatalf("record 1 = %+v", got[1])
	}
}

func TestReplayEmptyJournal(t *testing.T) {
	j, _ := newTestJournal(t, 4096)
	n, err := j.Replay(func(Record) error { t.Fatal("applied record from empty journal"); return nil })
	if err != nil || n != 0 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
}

func TestUncommittedTxNotReplayed(t *testing.T) {
	j, dev := newTestJournal(t, 1<<20)
	if err := j.Commit([]Record{{Type: 1, A: 1}}); err != nil {
		t.Fatal(err)
	}

	// Hand-write a record without a commit marker (simulating a crash
	// mid-transaction): encode via the package helper, drop the commit.
	orphan := encodeRecord(99, Record{Type: 7, A: 7})
	head := j.UsedBytes()
	dev.WriteAt(orphan, head)
	dev.PersistAll()

	var types []uint8
	n, err := j.Replay(func(r Record) error { types = append(types, r.Type); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(types) != 1 || types[0] != 1 {
		t.Fatalf("replay picked up orphan: n=%d types=%v", n, types)
	}
}

func TestCrashDropsUnpersistedCommit(t *testing.T) {
	j, dev := newTestJournal(t, 1<<20)
	if err := j.Commit([]Record{{Type: 1}}); err != nil {
		t.Fatal(err)
	}
	// Second transaction: commit normally, then corrupt its commit marker
	// region by crashing after an unpersisted overwrite — simpler: write a
	// transaction but crash the device before Persist by injecting a write
	// directly (uncommitted bytes are volatile only if not persisted; Commit
	// persists, so instead simulate the torn tail with a manual record).
	torn := encodeRecord(55, Record{Type: 9})
	torn[len(torn)-1] ^= 0xFF // corrupt the CRC byte region
	dev.WriteAt(torn, j.UsedBytes())
	dev.PersistAll()

	var got []Record
	n, err := j.Replay(func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(got) != 1 {
		t.Fatalf("torn record replayed: n=%d got=%+v", n, got)
	}
}

func TestMultipleTransactionsOrdered(t *testing.T) {
	j, _ := newTestJournal(t, 1<<20)
	for i := 0; i < 10; i++ {
		if err := j.Commit([]Record{{Type: 3, A: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	var order []int64
	n, err := j.Replay(func(r Record) error { order = append(order, r.A); return nil })
	if err != nil || n != 10 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	for i, a := range order {
		if a != int64(i) {
			t.Fatalf("replay order broken: %v", order)
		}
	}
}

func TestJournalFull(t *testing.T) {
	j, _ := newTestJournal(t, 256)
	if err := j.Commit([]Record{{Type: 1, Payload: make([]byte, 300)}}); !errors.Is(err, ErrFull) {
		t.Fatalf("oversized commit err = %v", err)
	}
	// Fill with small transactions until full.
	for i := 0; ; i++ {
		if err := j.Commit([]Record{{Type: 1}}); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("unexpected err: %v", err)
			}
			break
		}
		if i > 100 {
			t.Fatal("journal never filled")
		}
	}
}

func TestReplayResumesSequence(t *testing.T) {
	j, dev := newTestJournal(t, 1<<20)
	j.Commit([]Record{{Type: 1}})

	// Fresh journal object over the same device (restart).
	j2 := New(dev, 0, 1<<20)
	if _, err := j2.Replay(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// New commit must append after the recovered head, not clobber it.
	if err := j2.Commit([]Record{{Type: 2}}); err != nil {
		t.Fatal(err)
	}
	var types []uint8
	j3 := New(dev, 0, 1<<20)
	n, err := j3.Replay(func(r Record) error { types = append(types, r.Type); return nil })
	if err != nil || n != 2 {
		t.Fatalf("Replay = %d, %v (types %v)", n, err, types)
	}
}

func TestReplayApplyErrorPropagates(t *testing.T) {
	j, _ := newTestJournal(t, 1<<20)
	j.Commit([]Record{{Type: 1}})
	wantErr := errors.New("apply boom")
	if _, err := j.Replay(func(Record) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestCommitSurvivesDeviceCrash(t *testing.T) {
	j, dev := newTestJournal(t, 1<<20)
	if err := j.Commit([]Record{{Type: 1, A: 42, Payload: []byte("durable")}}); err != nil {
		t.Fatal(err)
	}
	dev.Crash() // commit already persisted; must survive
	var got []Record
	j2 := New(dev, 0, 1<<20)
	n, err := j2.Replay(func(r Record) error { got = append(got, r); return nil })
	if err != nil || n != 1 || len(got) != 1 || got[0].A != 42 {
		t.Fatalf("committed txn lost in crash: n=%d err=%v got=%+v", n, err, got)
	}
}

// encodeRecord returns r encoded as a record of transaction seq, without
// a commit marker.
func encodeRecord(seq uint64, r Record) []byte {
	var tx Tx
	tx.begin(seq)
	tx.Append(r)
	defer tx.release()
	return bytes.Join(tx.pages, nil)
}
