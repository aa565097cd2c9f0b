package journal

import (
	"errors"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/simclock"
)

func newTestDual(t *testing.T, size int64) (*Dual, *device.Device) {
	t.Helper()
	dev := device.New(device.PMProfile("pm0"), simclock.New())
	d, err := NewDual(dev, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return d, dev
}

func TestDualCommitAndReplay(t *testing.T) {
	d, dev := newTestDual(t, 1<<20)
	for i := 0; i < 5; i++ {
		if err := d.Commit([]Record{{Type: 1, A: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	d2, _ := NewDual(dev, 0, 1<<20)
	var order []int64
	n, err := d2.Replay(func(r Record) error { order = append(order, r.A); return nil })
	if err != nil || n != 5 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	for i, a := range order {
		if a != int64(i) {
			t.Fatalf("replay order broken: %v", order)
		}
	}
}

func TestDualCompactReplacesLog(t *testing.T) {
	d, dev := newTestDual(t, 1<<20)
	for i := 0; i < 5; i++ {
		if err := d.Commit([]Record{{Type: 1, A: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(func(tx *Tx) {
		tx.Append(Record{Type: 2, A: 99}) // condensed state
	}); err != nil {
		t.Fatal(err)
	}
	// Post-compaction commits append after the snapshot.
	if err := d.Commit([]Record{{Type: 3, A: 100}}); err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDual(dev, 0, 1<<20)
	var got []Record
	n, err := d2.Replay(func(r Record) error { got = append(got, r); return nil })
	if err != nil || n != 2 {
		t.Fatalf("Replay = %d, %v (%+v)", n, err, got)
	}
	if len(got) != 2 || got[0].Type != 2 || got[1].Type != 3 {
		t.Fatalf("post-compaction state = %+v", got)
	}
}

// TestDualCompactCrashSweep arms a crash point at every durability step of
// Compact and verifies that recovery always sees either the complete old
// log or the complete snapshot — never an empty or partial journal. This is
// the exact window the single-region checkpoint-then-rewrite compaction
// lost state in.
func TestDualCompactCrashSweep(t *testing.T) {
	const size = 1 << 20
	build := func() (*Dual, *device.Device, *device.CrashPoint) {
		dev := device.New(device.PMProfile("pm0"), simclock.New())
		cp := device.NewCrashPoint()
		dev.SetCrashPoint(cp)
		d, err := NewDual(dev, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := d.Commit([]Record{{Type: 1, A: int64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		return d, dev, cp
	}
	compact := func(d *Dual) error {
		return d.Compact(func(tx *Tx) {
			tx.Append(Record{Type: 2, A: 99})
		})
	}

	// Count run: how many durability steps does one Compact take?
	d, _, cp := build()
	cp.Reset()
	if err := compact(d); err != nil {
		t.Fatal(err)
	}
	steps := cp.Steps()
	if steps == 0 {
		t.Fatal("Compact performed no durability steps")
	}

	for i := int64(0); i <= steps; i++ {
		d, dev, cp := build()
		cp.Arm(i)
		err := compact(d)
		if i < steps {
			if !errors.Is(err, device.ErrCrashPoint) {
				t.Fatalf("crash point %d: Compact err = %v, want ErrCrashPoint", i, err)
			}
		} else if err != nil {
			t.Fatalf("crash point %d (past end): %v", i, err)
		}
		cp.Disarm()
		dev.Crash()

		d2, rerr := NewDual(dev, 0, size)
		if rerr != nil {
			t.Fatal(rerr)
		}
		var got []Record
		if _, rerr := d2.Replay(func(r Record) error { got = append(got, r); return nil }); rerr != nil {
			t.Fatalf("crash point %d: replay: %v", i, rerr)
		}
		oldLog := len(got) == 5 && got[0].Type == 1
		newLog := len(got) == 1 && got[0].Type == 2
		if !oldLog && !newLog {
			t.Fatalf("crash point %d: recovered neither old log nor snapshot: %+v", i, got)
		}
	}
}

// TestStaleRecordsAfterResetNotReplayed fills a half with committed
// records, compacts (so the other half becomes active with a much shorter
// stream), and verifies replay of the short stream never runs on into
// stale residue — the sequence-monotonicity guard.
func TestStaleRecordsAfterResetNotReplayed(t *testing.T) {
	d, dev := newTestDual(t, 1<<20)
	// Two compactions land the log back in half 0, which still holds the
	// original 20 records beyond the fresh snapshot's end.
	for i := 0; i < 20; i++ {
		if err := d.Commit([]Record{{Type: 1, A: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		if err := d.Compact(func(tx *Tx) {
			tx.Append(Record{Type: 2, A: int64(round)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	d2, _ := NewDual(dev, 0, 1<<20)
	var got []Record
	n, err := d2.Replay(func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(got) != 1 || got[0].Type != 2 || got[0].A != 1 {
		t.Fatalf("stale records resurrected: n=%d got=%+v", n, got)
	}
}
