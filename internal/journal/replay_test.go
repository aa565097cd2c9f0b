package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"muxfs/internal/device"
)

// txCost is the log bytes a transaction of records with these payload
// lengths takes: a header per record and the commit marker.
func txCost(plens ...int) int64 {
	n := int64(headerSize)
	for _, p := range plens {
		n += headerSize + int64(p)
	}
	return n
}

// payloadFor is record (tx, i)'s payload: n bytes derived from its place in
// the log, so a payload read from the wrong window offset fails to match.
func payloadFor(tx, i, n int) []byte {
	p := make([]byte, n)
	for k := range p {
		p[k] = byte(tx*31 + i*7 + k)
	}
	return p
}

// logBuilder commits transactions and remembers what replay must return.
type logBuilder struct {
	t    *testing.T
	j    *Journal
	want [][]Record
}

func (lb *logBuilder) commit(plens ...int) {
	lb.t.Helper()
	tx := len(lb.want)
	recs := make([]Record, len(plens))
	for i, n := range plens {
		recs[i] = Record{Type: uint8(1 + i%7), A: int64(tx), B: int64(i)}
		if n > 0 {
			recs[i].Payload = payloadFor(tx, i, n)
		}
	}
	if err := lb.j.Commit(recs); err != nil {
		lb.t.Fatal(err)
	}
	lb.want = append(lb.want, recs)
}

// padTo commits one single-record transaction that ends the log at off,
// so the next record's header starts there.
func (lb *logBuilder) padTo(off int64) {
	lb.t.Helper()
	p := off - lb.j.UsedBytes() - txCost(0)
	if p < 0 {
		lb.t.Fatalf("log is at %d, cannot pad to %d", lb.j.UsedBytes(), off)
	}
	lb.commit(int(p))
}

// check replays j into a fresh Journal over the same region and compares
// every record while apply runs, the only time its payload is valid.
func (lb *logBuilder) check(j *Journal, txns int) {
	lb.t.Helper()
	var flat []Record
	for _, recs := range lb.want[:txns] {
		flat = append(flat, recs...)
	}
	i := 0
	n, err := j.Replay(func(r Record) error {
		if i >= len(flat) {
			return fmt.Errorf("replay applied record %d of %d", i, len(flat))
		}
		w := flat[i]
		if r.Type != w.Type || r.A != w.A || r.B != w.B || !bytes.Equal(r.Payload, w.Payload) {
			return fmt.Errorf("record %d = {%d %d %d %d B}, want {%d %d %d %d B}",
				i, r.Type, r.A, r.B, len(r.Payload), w.Type, w.A, w.B, len(w.Payload))
		}
		i++
		return nil
	})
	if err != nil {
		lb.t.Fatal(err)
	}
	if n != txns || i != len(flat) {
		lb.t.Fatalf("replayed %d txns and %d records, want %d and %d", n, i, txns, len(flat))
	}
}

func newLogBuilder(t *testing.T, size int64) (*logBuilder, *device.Device) {
	j, dev := newTestJournal(t, size)
	return &logBuilder{t: t, j: j}, dev
}

// reopen returns a Journal over the same region, as a remount builds one.
func reopen(dev *device.Device, size int64) *Journal { return New(dev, 0, size) }

func TestReplayHeaderAcrossWindowEdge(t *testing.T) {
	for _, cut := range []int64{1, 12, headerSize - 1} {
		lb, dev := newLogBuilder(t, 1<<20)
		lb.padTo(replayWindow - cut) // the next header straddles the edge
		lb.commit(20, 0, 33)
		lb.commit(5)
		lb.check(reopen(dev, 1<<20), len(lb.want))
	}
}

func TestReplayPayloadAcrossWindowEdge(t *testing.T) {
	for _, cut := range []int64{1, 100, 999} {
		lb, dev := newLogBuilder(t, 1<<20)
		lb.padTo(replayWindow - headerSize - cut) // the payload straddles the edge
		lb.commit(1000, 8)
		lb.commit(0)
		lb.check(reopen(dev, 1<<20), len(lb.want))
	}
}

// A record larger than the window grows it, and the records of the same
// transaction read before it keep their payloads.
func TestReplayRecordLargerThanWindow(t *testing.T) {
	lb, dev := newLogBuilder(t, 1<<20)
	lb.commit(40, replayWindow*3/2, 40)
	lb.commit(10)
	lb.check(reopen(dev, 1<<20), len(lb.want))
}

// One transaction spans several windows: the records read before each
// window move must keep their payloads until the commit marker applies
// them.
func TestReplayTransactionAcrossWindows(t *testing.T) {
	lb, dev := newLogBuilder(t, 1<<20)
	lb.commit(16)
	plens := make([]int, 600) // ~600 × (37 + ~500) B ≈ 5 windows
	for i := range plens {
		plens[i] = 300 + (i*97)%400
	}
	lb.commit(plens...)
	lb.commit(24, 24)
	lb.check(reopen(dev, 1<<20), len(lb.want))
}

// A torn last transaction whose record straddles a window edge is dropped,
// the committed ones before it apply, and logging resumes at the end of
// the last committed transaction.
func TestReplayTornTailAtWindowEdge(t *testing.T) {
	const size = 1 << 20
	lb, dev := newLogBuilder(t, size)
	lb.commit(64)
	lb.padTo(replayWindow - 200)
	committed := len(lb.want)
	tornAt := lb.j.UsedBytes()
	lb.commit(100, 300) // its second record crosses the window edge
	// Tear the transaction at the edge: the bytes past it never persisted.
	tail := make([]byte, tornAt+txCost(100, 300)-replayWindow)
	if _, err := dev.WriteAt(tail, replayWindow); err != nil {
		t.Fatal(err)
	}
	j := reopen(dev, size)
	lb.check(j, committed)
	if j.UsedBytes() != tornAt {
		t.Fatalf("head after replay = %d, want %d (end of the last committed txn)", j.UsedBytes(), tornAt)
	}
	lb.want, lb.j = lb.want[:committed], j
	lb.commit(7, 7)
	lb.check(reopen(dev, size), len(lb.want))
}

// spanPlan is the device reads a replay of region must make: the region is
// read in requests of replaySpan bytes, and a header or payload that does
// not fit in the current request starts the next one at its own offset.
func spanPlan(region []byte) (reads, bytesRead int64) {
	var spanOff, spanEnd int64
	need := func(off, n int64) {
		if off >= spanOff && off+n <= spanEnd {
			return
		}
		sz := min(max(int64(replaySpan), n), int64(len(region))-off)
		spanOff, spanEnd = off, off+sz
		reads++
		bytesRead += sz
	}
	for pos := int64(0); pos+headerSize <= int64(len(region)); {
		need(pos, headerSize)
		h := region[pos:]
		if binary.LittleEndian.Uint32(h[0:4]) != magic {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(h[29:33]))
		if pos+headerSize+plen > int64(len(region)) {
			break
		}
		if plen > 0 {
			need(pos+headerSize, plen)
		}
		pos += headerSize + plen
	}
	return reads, bytesRead
}

// Replay charges the device one request per span of the region, whatever
// its window: the same requests, and so the same virtual time, as a read
// of each span into one buffer.
func TestReplayReadsOneRequestPerSpan(t *testing.T) {
	const size = 10 << 20
	lb, dev := newLogBuilder(t, size)
	for lb.j.UsedBytes() < size-64<<10 {
		lb.commit(900, 2100, 10)
	}
	region := make([]byte, size)
	if _, err := dev.ReadAt(region, 0); err != nil {
		t.Fatal(err)
	}
	wantReads, wantBytes := spanPlan(region)
	before := dev.Stats()
	lb.check(reopen(dev, size), len(lb.want))
	got := dev.Stats().Sub(before)
	if got.Reads != wantReads || got.BytesRead != wantBytes {
		t.Fatalf("replay read %d requests, %d B; want %d, %d B", got.Reads, got.BytesRead, wantReads, wantBytes)
	}
	if wantReads < 3 {
		t.Fatalf("the log covers only %d spans; the test wants several", wantReads)
	}
}

// Replay's heap is its window plus the open transaction, not the log: a
// log 8× longer allocates no more. Each figure is the least of three
// replays, so an allocation elsewhere in the process does not count.
func TestReplayHeapAllocBudget(t *testing.T) {
	replayAlloc := func(size int64) uint64 {
		lb, dev := newLogBuilder(t, size)
		for lb.j.UsedBytes() < size-4<<10 {
			lb.commit(32, 8, 40)
		}
		least := uint64(0)
		for r := 0; r < 3; r++ {
			j := reopen(dev, size)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := j.Replay(func(Record) error { return nil }); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if a := after.TotalAlloc - before.TotalAlloc; r == 0 || a < least {
				least = a
			}
		}
		return least
	}
	short, long := replayAlloc(1<<20), replayAlloc(8<<20)
	const budget = 256 << 10
	if long > budget || long > short+16<<10 {
		t.Fatalf("replay allocated %d B for a 1 MiB log and %d B for an 8 MiB one; want ≤ %d B and independent of the log's length", short, long, budget)
	}
}
