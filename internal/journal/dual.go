package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"muxfs/internal/device"
)

// Dual is a crash-atomic journal made of two half-regions plus a superblock
// page that names the active half. Normal commits append to the active
// half; Compact writes a full snapshot into the spare half and then flips
// the superblock in a single-page persist. A crash at any instant leaves a
// superblock pointing at one complete half: before the flip the old half is
// untouched (a torn snapshot in the spare is simply never read), after the
// flip the snapshot is already durable, because it commits before the flip.
//
// This replaces the single-region checkpoint-then-rewrite compaction, whose
// crash window between the checkpoint (which empties the log) and the
// snapshot commit lost the entire logged state.
type Dual struct {
	dev   *device.Device
	start int64

	// The callers' lock discipline (every client holds its own mutex across
	// Commit/Compact/Replay) serializes access; Journal's own mutex covers
	// the half-level state.
	active int
	halves [2]*Journal
	sb     [sbSize]byte // the superblock writeSuper encodes, reused
}

// sbPage is the superblock's reserved space: one device page, so the flip
// write is a single-page, all-or-nothing persist.
const sbPage = 4096

// sbSize: magic(4) + active(1) + seq(8) + crc(4).
const sbSize = 4 + 1 + 8 + 4

const sbMagic = 0x4D4C4244 // "DBLM"

// NewDual creates a dual journal over [start, start+size) of dev. Each half
// gets (size - sbPage) / 2 bytes. The region is assumed zeroed on first
// use; Replay recovers prior state, including which half is active.
func NewDual(dev *device.Device, start, size int64) (*Dual, error) {
	half := (size - sbPage) / 2
	if half < headerSize {
		return nil, fmt.Errorf("journal: dual region of %d bytes too small", size)
	}
	return &Dual{
		dev:   dev,
		start: start,
		halves: [2]*Journal{
			New(dev, start+sbPage, half),
			New(dev, start+sbPage+half, half),
		},
	}, nil
}

// Commit durably writes recs as one transaction on the active half (see
// Journal.Commit). ErrFull means the half is full: Compact.
func (d *Dual) Commit(recs []Record) error { return d.halves[d.active].Commit(recs) }

// UsedBytes returns the bytes occupied in the active half.
func (d *Dual) UsedBytes() int64 { return d.halves[d.active].UsedBytes() }

// Size returns the capacity of one half — the budget a transaction stream
// has before Compact is required.
func (d *Dual) Size() int64 { return d.halves[0].size }

// Replay reads the superblock, replays the active half, and prepares the
// spare so sequence numbers stay monotonic across future compactions.
func (d *Dual) Replay(apply func(Record) error) (int, error) {
	buf := make([]byte, sbSize)
	if _, err := d.dev.ReadAt(buf, d.start); err != nil {
		return 0, fmt.Errorf("journal superblock read: %w", err)
	}
	d.active = 0
	if binary.LittleEndian.Uint32(buf[0:4]) == sbMagic &&
		binary.LittleEndian.Uint32(buf[13:17]) == sbCRC(buf) &&
		buf[4] == 1 {
		d.active = 1
	}
	n, err := d.halves[d.active].Replay(apply)
	if err != nil {
		return n, err
	}
	d.halves[1-d.active].reset(d.halves[d.active].nextSeq())
	return n, nil
}

// Compact atomically replaces the log with a snapshot: the snapshot callback
// appends the full current state to a transaction bound for the spare half,
// the transaction commits there, and the superblock flips. The old half
// stays valid until the single-page flip persists, so every crash point
// recovers either the complete old log or the complete snapshot. The spare
// half's sequence number is known before the callback runs, so each record
// encodes onto arena pages as it is appended (Tx): the snapshot costs no
// heap that grows with its length. Like Commit, Compact relies on the
// callers' lock discipline: the flip of the active half is not locked.
func (d *Dual) Compact(snapshot func(*Tx)) error {
	cur, spare := d.halves[d.active], d.halves[1-d.active]
	spare.reset(cur.nextSeq())
	// Only the active half commits, so the encoder, whose page chain has
	// grown to the longest transaction, moves with it. The swap waits out
	// a Commit in flight on the active half.
	cur.mu.Lock()
	spare.mu.Lock()
	spare.tx, cur.tx = cur.tx, spare.tx
	spare.tx.begin(spare.seq)
	spare.mu.Unlock()
	cur.mu.Unlock()
	snapshot(&spare.tx)
	spare.mu.Lock()
	err := spare.commitTx()
	spare.mu.Unlock()
	if err != nil {
		return fmt.Errorf("journal compaction snapshot: %w", err)
	}
	if err := d.writeSuper(1 - d.active); err != nil {
		return err
	}
	d.active = 1 - d.active
	return nil
}

func (d *Dual) writeSuper(active int) error {
	seq := d.halves[active].nextSeq()
	buf := d.sb[:]
	binary.LittleEndian.PutUint32(buf[0:4], sbMagic)
	buf[4] = byte(active)
	binary.LittleEndian.PutUint64(buf[5:13], seq)
	binary.LittleEndian.PutUint32(buf[13:17], sbCRC(buf))
	if _, err := d.dev.WriteAt(buf, d.start); err != nil {
		return fmt.Errorf("journal superblock write: %w", err)
	}
	if err := d.dev.Persist(d.start, sbSize); err != nil {
		return fmt.Errorf("journal superblock persist: %w", err)
	}
	return nil
}

// sbCRC checksums an encoded superblock's active and seq fields.
func sbCRC(sb []byte) uint32 { return crc32.ChecksumIEEE(sb[4:13]) }

// reset logically empties a half and restarts its sequence numbering at
// seq, so records it logs from now on outrank every stale record left in
// the region (replay's monotonicity guard skips those).
func (j *Journal) reset(seq uint64) {
	j.mu.Lock()
	j.head = 0
	if seq > j.seq {
		j.seq = seq
	}
	j.mu.Unlock()
}

// nextSeq returns the sequence number the next transaction would use.
func (j *Journal) nextSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}
