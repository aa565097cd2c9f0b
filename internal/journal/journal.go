// Package journal implements a write-ahead log over a region of a simulated
// device, with transactions, checksummed commit records, and crash replay.
//
// xfslite journals metadata, extlite journals metadata in ordered mode, and
// Mux journals its own meta file (Block Lookup Table and affinity table)
// through the same machinery. The journal is the component that turns the
// device layer's "un-persisted writes vanish on Crash" semantics into
// recoverable file systems.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"muxfs/internal/bufpool"
	"muxfs/internal/device"
)

// Record types are defined by the client file system; the journal treats
// Type opaquely except for the reserved commit marker.
const commitType = 0xFF

const magic = 0x4D4C4E4A // "JNLM"

// headerSize: magic(4) + seq(8) + type(1) + a(8) + b(8) + plen(4) + crc(4).
const headerSize = 4 + 8 + 1 + 8 + 8 + 4 + 4

// Errors.
var (
	// ErrFull reports that the journal region cannot hold the transaction;
	// the caller must compact first (Dual.Compact).
	ErrFull = errors.New("journal: full")
	// ErrCorrupt reports a checksum mismatch during replay.
	ErrCorrupt = errors.New("journal: corrupt record")
)

// Record is one logged operation. A and B are client-defined operands
// (an inode number and a block index, say); Payload carries variable data.
type Record struct {
	Type    uint8
	A, B    int64
	Payload []byte
}

// Journal is a write-ahead log in [start, start+size) of dev. Safe for
// concurrent Commit calls; the records of one Commit stay contiguous.
type Journal struct {
	dev   *device.Device
	start int64
	size  int64

	mu   sync.Mutex
	head int64  // next write offset, relative to start
	seq  uint64 // next transaction sequence number
	tx   Tx     // the encoder, reused under mu
}

// New creates a journal over [start, start+size) of dev. The region is
// assumed empty (all zeros) on first use; Replay recovers prior state.
func New(dev *device.Device, start, size int64) *Journal {
	return &Journal{dev: dev, start: start, size: size, seq: 1}
}

// Tx is one transaction being encoded. Append encodes each record, CRC
// included, straight into a chain of arena pages (bufpool.GetPage), so a
// transaction of any size — a compaction snapshot — holds no record list
// and no contiguous heap buffer. The chain is written as one device
// request and the pages go back to the arena after the commit.
type Tx struct {
	seq   uint64
	pages [][]byte // arena pages, each full but the last
	n     int64    // bytes encoded
	hdr   [headerSize]byte
}

// Append encodes r into the transaction. r is not retained: its payload
// may be reused as soon as Append returns.
func (tx *Tx) Append(r Record) {
	h := tx.hdr[:] // a field, so the CRC's read of it does not escape
	le := binary.LittleEndian
	le.PutUint32(h[0:4], magic)
	le.PutUint64(h[4:12], tx.seq)
	h[12] = r.Type
	le.PutUint64(h[13:21], uint64(r.A))
	le.PutUint64(h[21:29], uint64(r.B))
	le.PutUint32(h[29:33], uint32(len(r.Payload)))
	// The CRC covers seq..b and the payload.
	le.PutUint32(h[33:37], crc32.Update(crc32.ChecksumIEEE(h[4:29]), crc32.IEEETable, r.Payload))
	tx.write(h)
	tx.write(r.Payload)
}

// write copies b onto the page chain, taking a fresh page whenever the
// last one is full.
func (tx *Tx) write(b []byte) {
	tx.n += int64(len(b))
	for len(b) > 0 {
		last := len(tx.pages) - 1
		if last < 0 || len(tx.pages[last]) == bufpool.PageSize {
			tx.pages = append(tx.pages, bufpool.GetPage()[:0])
			last++
		}
		p := tx.pages[last]
		k := copy(p[len(p):bufpool.PageSize], b)
		tx.pages[last] = p[:len(p)+k]
		b = b[k:]
	}
}

// begin starts an empty transaction with sequence number seq.
func (tx *Tx) begin(seq uint64) {
	tx.release()
	tx.seq = seq
}

// release returns the transaction's pages to the arena, keeping the chain
// slice for the next transaction.
func (tx *Tx) release() {
	for _, p := range tx.pages {
		bufpool.PutPage((*[bufpool.PageSize]byte)(p[:bufpool.PageSize]))
	}
	clear(tx.pages)
	tx.pages, tx.n = tx.pages[:0], 0
}

// Commit durably writes recs as one transaction: all records followed by a
// commit marker, then a persistence barrier. Either the whole transaction
// replays after a crash or none of it does. recs is not retained, and
// commits allocate nothing: records encode onto arena pages (Tx).
func (j *Journal) Commit(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.tx.begin(j.seq)
	for _, r := range recs {
		j.tx.Append(r)
	}
	return j.commitTx()
}

// commitTx appends the commit marker to j.tx and writes the transaction at
// the head: one write request of the page chain, one persist of its range.
// The pages go back to the arena whatever the outcome. Caller holds j.mu.
func (j *Journal) commitTx() error {
	tx := &j.tx
	defer tx.release()
	tx.Append(Record{Type: commitType})
	if j.head+tx.n > j.size {
		return fmt.Errorf("%w: need %d bytes, %d left", ErrFull, tx.n, j.size-j.head)
	}
	off := j.start + j.head
	if _, err := j.dev.WriteVecAt(tx.pages, off); err != nil {
		return fmt.Errorf("journal commit: %w", err)
	}
	if err := j.dev.Persist(off, tx.n); err != nil {
		return fmt.Errorf("journal persist: %w", err)
	}
	j.head += tx.n
	j.seq++
	return nil
}

// Replay scans the journal and applies every record of every committed
// transaction, in order, via apply. Records of transactions that never
// reached their commit marker are discarded (torn tail). Replay also
// rebuilds the head and sequence so logging can resume. It returns the
// number of transactions applied.
//
// A record's Payload is valid only until apply returns: replay reads the
// log through one small reused window, so its host memory is the window
// plus the largest transaction, not the length of the log.
func (j *Journal) Replay(apply func(Record) error) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()

	sc := scanner{dev: j.dev, base: j.start, size: j.size}
	pos := int64(0)
	applied := 0
	var pendingSeq uint64
	lastCommitEnd := int64(0)
	maxSeq := uint64(0)
	for pos+headerSize <= j.size {
		hdr, err := sc.view(pos, headerSize)
		if err != nil {
			return applied, fmt.Errorf("journal replay read: %w", err)
		}
		m := binary.LittleEndian.Uint32(hdr[0:4])
		if m != magic {
			break // end of log (zero-filled or terminator)
		}
		seq := binary.LittleEndian.Uint64(hdr[4:12])
		typ := hdr[12]
		a := int64(binary.LittleEndian.Uint64(hdr[13:21]))
		b := int64(binary.LittleEndian.Uint64(hdr[21:29]))
		plen := binary.LittleEndian.Uint32(hdr[29:33])
		wantCRC := binary.LittleEndian.Uint32(hdr[33:37])
		if pos+headerSize+int64(plen) > j.size {
			break // torn record running past the region
		}
		// The payload view may move the window off the header, so the
		// header's share of the CRC is taken first.
		crc := crc32.ChecksumIEEE(hdr[4:29])
		var payload []byte
		if plen > 0 {
			payload, err = sc.view(pos+headerSize, int64(plen))
			if err != nil {
				return applied, fmt.Errorf("journal replay read: %w", err)
			}
		}
		if crc32.Update(crc, crc32.IEEETable, payload) != wantCRC {
			break // torn write: stop at the first bad checksum
		}
		if seq <= maxSeq {
			// Sequence numbers only grow. A record outranked by an already
			// replayed commit is stale residue from before a checkpoint or
			// half-region reset that the newer stream has not yet
			// overwritten — replaying it would resurrect old state.
			break
		}
		pos += headerSize + int64(plen)

		if pendingSeq != 0 && seq != pendingSeq {
			// A new transaction started without the previous committing:
			// drop the uncommitted one.
			sc.dropPending()
		}
		pendingSeq = seq

		if typ == commitType {
			for i := range sc.pending {
				if err := apply(sc.record(i)); err != nil {
					return applied, fmt.Errorf("journal replay apply: %w", err)
				}
			}
			applied++
			sc.dropPending()
			pendingSeq = 0
			lastCommitEnd = pos
			if seq > maxSeq {
				maxSeq = seq
			}
			continue
		}
		sc.pending = append(sc.pending, pendingRecord{a: a, b: b, off: pos - int64(plen), n: plen, typ: typ})
	}

	j.head = lastCommitEnd
	j.seq = maxSeq + 1
	return applied, nil
}

// Replay reads the region in spans of replaySpan bytes, each one charged
// device request (device.ReadSpan), and copies each span into the host
// through a window of replayWindow bytes, reused. A record larger than the
// window grows it to the record's size.
const (
	replaySpan   = 4 << 20
	replayWindow = 64 << 10
)

// scanner is Replay's view of the region: the charged span, the window of
// its bytes in host memory, and the records of the open transaction, whose
// payloads stay in the window until it moves and in the arena after.
type scanner struct {
	dev        *device.Device
	base, size int64 // the region, [base, base+size) of dev

	span    device.Span
	spanOff int64 // region-relative bounds of span
	spanEnd int64
	win     []byte // region bytes [winOff, winOff+len(win))
	winOff  int64

	pending []pendingRecord // the open transaction
	inWin   int             // pending[inWin:] have their payloads in win
	arena   []byte          // payloads of pending[:inWin]
}

// pendingRecord is a record of the open transaction. Its payload is the n
// bytes at off: a region offset while the payload is in the window, an
// arena offset once the window has moved. It holds no pointer, so a large
// transaction (a compaction snapshot) costs the garbage collector nothing
// to scan.
type pendingRecord struct {
	a, b int64
	off  int64
	n    uint32
	typ  uint8
}

// record returns pending record i, its payload aliasing the window or the
// arena.
func (sc *scanner) record(i int) Record {
	p := &sc.pending[i]
	r := Record{Type: p.typ, A: p.a, B: p.b}
	if p.n > 0 {
		at, buf := p.off, sc.arena
		if i >= sc.inWin {
			at, buf = p.off-sc.winOff, sc.win
		}
		r.Payload = buf[at : at+int64(p.n) : at+int64(p.n)]
	}
	return r
}

// view returns the n region bytes at off, capped at n. The slice is valid
// until the next view call moves the window.
func (sc *scanner) view(off, n int64) ([]byte, error) {
	if off >= sc.winOff && off+n <= sc.winOff+int64(len(sc.win)) {
		return sc.win[off-sc.winOff : off-sc.winOff+n : off-sc.winOff+n], nil
	}
	if off < sc.spanOff || off+n > sc.spanEnd {
		sz := max(int64(replaySpan), n)
		sz = min(sz, sc.size-off)
		span, err := sc.dev.ReadSpan(sc.base+off, int(sz))
		if err != nil {
			return nil, err
		}
		sc.span, sc.spanOff, sc.spanEnd = span, off, off+sz
	}
	sc.keepPending()
	w := min(max(int64(replayWindow), n), sc.size)
	if int64(cap(sc.win)) < w {
		sc.win = make([]byte, w)
	}
	w = min(int64(cap(sc.win)), sc.spanEnd-off)
	sc.win, sc.winOff = sc.win[:w], off
	if err := sc.span.ReadAt(sc.win, sc.base+off); err != nil {
		return nil, err
	}
	return sc.win[:n:n], nil
}

// keepPending copies the payloads of the open transaction that are in the
// window into the arena, before the window moves.
func (sc *scanner) keepPending() {
	for i := sc.inWin; i < len(sc.pending); i++ {
		if p := &sc.pending[i]; p.n > 0 {
			at := p.off - sc.winOff
			p.off = int64(len(sc.arena))
			sc.arena = append(sc.arena, sc.win[at:at+int64(p.n)]...)
		}
	}
	sc.inWin = len(sc.pending)
}

// dropPending empties the open transaction, keeping its buffers.
func (sc *scanner) dropPending() {
	sc.pending, sc.arena, sc.inWin = sc.pending[:0], sc.arena[:0], 0
}

// UsedBytes returns the bytes currently occupied by the log.
func (j *Journal) UsedBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.head
}

// Size returns the journal region size.
func (j *Journal) Size() int64 { return j.size }
