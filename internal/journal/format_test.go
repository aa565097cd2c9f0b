package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"muxfs/internal/bufpool"
	"muxfs/internal/device"
	"muxfs/internal/race"
	"muxfs/internal/simclock"
)

// The on-device format is pinned byte for byte, CRCs included: one fixed
// transaction as the first commit of a Dual's active half, and the
// superblock a Compact writes. A change to the encoder that moves a byte
// breaks recovery of every existing log.
func TestFormatGolden(t *testing.T) {
	const (
		txHex = "4a4e4c4d010000000000000005070000000000000000f0ffffffffffff06000000373aec31676f6c64656e" +
			"4a4e4c4d01000000000000000900000000000100000300000000000000000000007fc2f362" +
			"4a4e4c4d0100000000000000ff0000000000000000000000000000000000000000cfa8fe54"
		sbHex = "44424c4d0103000000000000000e07fd7f"
	)
	d, dev := newTestDual(t, 64<<10)
	if err := d.Commit([]Record{
		{Type: 5, A: 7, B: -4096, Payload: []byte("golden")},
		{Type: 9, A: 1 << 40, B: 3},
	}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, d.UsedBytes())
	if _, err := dev.ReadAt(got, sbPage); err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != txHex {
		t.Fatalf("transaction bytes moved:\n got %x\nwant %s", got, txHex)
	}
	if err := d.Compact(func(tx *Tx) { tx.Append(Record{Type: 2, A: 1}) }); err != nil {
		t.Fatal(err)
	}
	sb := make([]byte, sbSize)
	if _, err := dev.ReadAt(sb, 0); err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(sb) != sbHex {
		t.Fatalf("superblock bytes moved:\n got %x\nwant %s", sb, sbHex)
	}
}

// newWarmDual returns a Dual whose whole region already holds persisted
// device pages, so commits into it measure the journal's own allocations,
// not the device model's first touch of a page.
func newWarmDual(t testing.TB, size int64) *Dual {
	dev := device.New(device.PMProfile("pm0"), simclock.New())
	if _, err := dev.WriteAt(make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}
	dev.PersistAll()
	d, err := NewDual(dev, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A steady stream of small commits allocates nothing: records encode into
// the journal's reused buffer and the CRC reads them in place.
func TestDualCommitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	d := newWarmDual(t, 1<<20)
	recs := []Record{
		{Type: 5, A: 1, B: 4096, Payload: make([]byte, 32)},
		{Type: 7, A: 1, B: 8192, Payload: make([]byte, 8)},
	}
	commit := func() {
		if err := d.Commit(recs); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(1000, commit); a != 0 {
		t.Fatalf("Dual.Commit of %d small records: %.1f allocations per call, want 0", len(recs), a)
	}
}

// A compaction snapshot streams onto arena pages and keeps nothing: after
// a 1.1 MiB snapshot neither half holds an encoded byte or a page, every
// page the snapshot took is back on the arena's free list, and the
// snapshot replays record for record.
func TestSnapshotScratchAllocationBudget(t *testing.T) {
	const size = 8 << 20
	d := newWarmDual(t, size)
	batch := []Record{{Type: 1, A: 1, Payload: make([]byte, 40<<10)}}
	if err := d.Commit(batch); err != nil {
		t.Fatal(err)
	}
	mapped0, free0 := bufpool.PageStats()
	const recs = 2048 // 2048 × (37 + 512) B ≈ 1.1 MiB
	payload := make([]byte, 512)
	if err := d.Compact(func(tx *Tx) {
		for i := 0; i < recs; i++ {
			for j := range payload {
				payload[j] = byte(i)
			}
			tx.Append(Record{Type: 2, A: int64(i), Payload: payload})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(batch); err != nil {
		t.Fatal(err)
	}
	for i, h := range d.halves {
		if len(h.tx.pages) != 0 || h.tx.n != 0 {
			t.Fatalf("half %d keeps %d pages (%d B) of encoded transaction after its commit", i, len(h.tx.pages), h.tx.n)
		}
	}
	if mapped, free := bufpool.PageStats(); mapped-free != mapped0-free0 {
		t.Fatalf("arena pages in use %d after the snapshot committed, want %d as before it", mapped-free, mapped0-free0)
	}
	d2, _ := NewDual(d.dev, 0, size)
	n := 0
	if _, err := d2.Replay(func(r Record) error {
		if r.Type == 2 && (r.A != int64(n) || len(r.Payload) != 512 || r.Payload[0] != byte(n) || r.Payload[511] != byte(n)) {
			t.Fatalf("snapshot record %d replayed as %+v", n, r)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != recs+1 {
		t.Fatalf("replayed %d records, want the %d of the snapshot plus 1", n, recs)
	}
}

// snapshotOf returns a Compact callback that appends a namespace-shaped
// snapshot of files files: per file a create record with its path, an
// attribute record and an extent record, as novafs and Mux write them.
// The callback itself allocates nothing.
func snapshotOf(files int) func(*Tx) {
	paths := make([][]byte, files)
	for i := range paths {
		paths[i] = fmt.Appendf(nil, "/dir%d/file%05d", i%16, i)
	}
	attr, ext := make([]byte, 40), make([]byte, 32)
	return func(tx *Tx) {
		for i, p := range paths {
			tx.Append(Record{Type: 1, A: int64(i), B: 0o644, Payload: p})
			tx.Append(Record{Type: 6, A: int64(i), Payload: attr})
			tx.Append(Record{Type: 5, A: int64(i), B: 0, Payload: ext})
		}
	}
}

// A snapshot's heap allocations do not grow with its length: Compact at
// 10,000 files makes as many as at 1,000 (none, once the encoder's page
// chain has grown), since records encode onto arena pages as they are
// appended.
func TestDualCompactAllocationsFlat(t *testing.T) {
	allocs := func(files int) float64 {
		d := newWarmDual(t, 8<<20)
		snap := snapshotOf(files)
		return testing.AllocsPerRun(4, func() {
			if err := d.Compact(snap); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large || large != 0 {
		t.Fatalf("Dual.Compact: %.1f allocations at 1,000 files, %.1f at 10,000, want 0 at both", small, large)
	}
}

func BenchmarkDualCompact(b *testing.B) {
	for _, files := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			d := newWarmDual(b, 8<<20)
			snap := snapshotOf(files)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Compact(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDualCommit(b *testing.B) {
	d := newWarmDual(b, 64<<20)
	recs := []Record{
		{Type: 5, A: 1, B: 4096, Payload: make([]byte, 32)},
		{Type: 7, A: 1, B: 8192, Payload: make([]byte, 8)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Commit(recs); err != nil {
			if !errors.Is(err, ErrFull) {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := d.Compact(func(*Tx) {}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// FuzzDualReplay replays arbitrary bytes as a Dual's active half. Replay
// must never panic, and every record it applies must belong to a
// transaction that was committed: its commit marker follows it with the
// same sequence number, and every record checks out against its CRC.
func FuzzDualReplay(f *testing.F) {
	const size = sbPage + 2*4096
	seed := func(commit func(*Dual)) []byte {
		dev := device.New(device.PMProfile("pm0"), simclock.New())
		d, _ := NewDual(dev, 0, size)
		commit(d)
		buf := make([]byte, d.UsedBytes())
		dev.ReadAt(buf, sbPage)
		return buf
	}
	f.Add(seed(func(d *Dual) {
		d.Commit([]Record{{Type: 5, A: 7, B: 9, Payload: []byte("payload")}})
		d.Commit([]Record{{Type: 6, A: 1}, {Type: 7, B: 2}})
	}))
	torn := seed(func(d *Dual) { d.Commit([]Record{{Type: 5, Payload: []byte("torn")}}) })
	f.Add(torn[:len(torn)-headerSize])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, region []byte) {
		if len(region) > 4096 {
			region = region[:4096]
		}
		dev := device.New(device.PMProfile("pm0"), simclock.New())
		dev.WriteAt(region, sbPage)
		dev.PersistAll()
		d, err := NewDual(dev, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		half := make([]byte, 4096) // the rest of the half reads zero
		copy(half, region)
		committed := committedRecords(half)
		var got []Record
		n, err := d.Replay(func(r Record) error { got = append(got, r); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > len(committed) {
			t.Fatalf("replay applied %d records (%d txns), only %d are committed", len(got), n, len(committed))
		}
		for i, r := range got {
			c := committed[i]
			if r.Type != c.Type || r.A != c.A || r.B != c.B || !bytes.Equal(r.Payload, c.Payload) {
				t.Fatalf("replayed record %d = %+v, committed %+v", i, r, c)
			}
		}
	})
}

// committedRecords is a reference decoder written from the format alone:
// in order, the records of every transaction that ends in a commit marker,
// up to the first record that does not decode, fails its CRC, or does not
// outrank the last committed sequence number.
func committedRecords(region []byte) []Record {
	var out, pending []Record
	var pendingSeq, lastSeq uint64
	for len(region) >= headerSize {
		h := region[:headerSize]
		if binary.LittleEndian.Uint32(h[0:4]) != magic {
			break
		}
		seq := binary.LittleEndian.Uint64(h[4:12])
		plen := int(binary.LittleEndian.Uint32(h[29:33]))
		if plen > len(region)-headerSize {
			break
		}
		payload := region[headerSize : headerSize+plen]
		crc := crc32.ChecksumIEEE(append(append([]byte{}, h[4:29]...), payload...))
		if crc != binary.LittleEndian.Uint32(h[33:37]) || seq <= lastSeq {
			break
		}
		region = region[headerSize+plen:]
		if pendingSeq != 0 && seq != pendingSeq {
			pending = pending[:0]
		}
		pendingSeq = seq
		if h[12] == commitType {
			out = append(out, pending...)
			pending, pendingSeq, lastSeq = nil, 0, seq
			continue
		}
		pending = append(pending, Record{
			Type: h[12], A: int64(binary.LittleEndian.Uint64(h[13:21])),
			B: int64(binary.LittleEndian.Uint64(h[21:29])), Payload: payload,
		})
	}
	return out
}
