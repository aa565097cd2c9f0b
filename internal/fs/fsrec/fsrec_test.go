package fsrec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"muxfs/internal/journal"
	"muxfs/internal/vfs"
)

// record encodes op into an arena of its own.
func record(op Op) journal.Record {
	r, _ := op.AppendRecord(nil)
	return r
}

func roundTrip(t *testing.T, op Op) Op {
	t.Helper()
	got, err := Parse(record(op))
	if err != nil {
		t.Fatalf("Parse(%+v): %v", op, err)
	}
	return got
}

// sampleOps holds one op of every type.
var sampleOps = []Op{
	{Type: OpCreate, Ino: 42, Path: "/a/b", Mode: 0o640},
	{Type: OpMkdir, Ino: 7, Path: "/dir", Mode: vfs.ModeDir | 0o755},
	{Type: OpRemove, Path: "/gone"},
	{Type: OpRename, Path: "/old", Path2: "/new"},
	{Type: OpExtent, Ino: 9, Off: 8192, Delta: 1 << 20, N: 4096, Size: 123456, MTime: 99 * time.Microsecond},
	{Type: OpSetAttr, Ino: 3, Size: 77, Mode: 0o600, MTime: time.Second, ATime: 2 * time.Second, CTime: 3 * time.Second},
	{Type: OpSizeTime, Ino: 5, Size: 1 << 40, MTime: time.Hour},
	{Type: OpPunch, Ino: 6, Off: 4096, N: 8192, MTime: time.Minute},
	{Type: OpTruncate, Ino: 8, Size: 0, MTime: time.Millisecond},
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, op := range sampleOps {
		if got := roundTrip(t, op); !reflect.DeepEqual(got, op) {
			t.Errorf("round trip changed op:\n in: %+v\nout: %+v", op, got)
		}
	}
}

func TestNegativeDeltaSurvives(t *testing.T) {
	// Deltas are routinely negative (device offset below file offset).
	op := Op{Type: OpExtent, Ino: 1, Off: 1 << 30, Delta: -(1 << 29), N: 4096, Size: 1 << 30, MTime: 1}
	if got := roundTrip(t, op); got.Delta != op.Delta {
		t.Fatalf("delta %d -> %d", op.Delta, got.Delta)
	}
}

func TestPathsWithFunnyCharacters(t *testing.T) {
	op := Op{Type: OpRename, Path: "/with space/αβγ", Path2: "/tab\tand✓"}
	got := roundTrip(t, op)
	if got.Path != op.Path || got.Path2 != op.Path2 {
		t.Fatalf("paths mangled: %+v", got)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []journal.Record{
		{Type: 200},                             // unknown type
		{Type: OpExtent, Payload: []byte{1, 2}}, // short payload
		{Type: OpSetAttr, Payload: make([]byte, 39)},
		{Type: OpSizeTime, Payload: nil},
		{Type: OpPunch, Payload: make([]byte, 15)},
		{Type: OpTruncate, Payload: make([]byte, 9)},
		{Type: OpRename, Payload: []byte("no-separator")},
	}
	for _, r := range bad {
		if _, err := Parse(r); err == nil {
			t.Errorf("Parse accepted garbage record type %d", r.Type)
		}
	}
}

func TestEncodePanicsOnUnknownType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRecord on unknown type did not panic")
		}
	}()
	Op{Type: 99}.AppendRecord(nil)
}

// TestQuickRoundTrip fuzzes extent records (the hot record type) through
// the codec.
func TestQuickRoundTrip(t *testing.T) {
	f := func(ino uint64, off, delta, n, size int64, mtime int64) bool {
		op := Op{Type: OpExtent, Ino: ino, Off: off, Delta: delta, N: n, Size: size, MTime: time.Duration(mtime)}
		got, err := Parse(record(op))
		return err == nil && reflect.DeepEqual(got, op)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse feeds arbitrary records to Parse, the decoder every journal
// replay runs: no record may panic it, and every record it accepts must
// re-encode to one that parses back to the same op.
func FuzzParse(f *testing.F) {
	for _, op := range sampleOps {
		r := record(op)
		f.Add(r.Type, r.A, r.B, r.Payload)
	}
	f.Add(uint8(OpRename), int64(0), int64(0), []byte("no separator"))
	f.Add(uint8(OpExtent), int64(1), int64(-1), []byte("short"))
	f.Add(uint8(0), int64(0), int64(0), []byte(nil))
	f.Fuzz(func(t *testing.T, typ uint8, a, b int64, payload []byte) {
		op, err := Parse(journal.Record{Type: typ, A: a, B: b, Payload: payload})
		if err != nil {
			return
		}
		again, err := Parse(record(op))
		if err != nil {
			t.Fatalf("re-encoded %+v does not parse: %v", op, err)
		}
		if !reflect.DeepEqual(again, op) {
			t.Fatalf("round trip changed op:\n in: %+v\nout: %+v", op, again)
		}
	})
}

// A reused batch encodes records without allocating: payloads go into its
// arena, which Reset keeps, and each record's payload reads back as
// encoded until the next Reset.
func TestBatchAllocatesNothing(t *testing.T) {
	var b Batch
	mark := []byte{1}
	fill := func() {
		b.Reset()
		for _, op := range sampleOps {
			b.Add(op)
		}
		b.AddRecord(journal.Record{Type: 20, A: 1, B: 2, Payload: mark})
	}
	fill()
	for i, op := range sampleOps {
		if got, err := Parse(b.Recs[i]); err != nil || !reflect.DeepEqual(got, op) {
			t.Fatalf("record %d parses as %+v, %v; want %+v", i, got, err, op)
		}
	}
	if a := testing.AllocsPerRun(100, fill); a != 0 {
		t.Fatalf("refilling a batch: %.1f allocations, want 0", a)
	}
}
