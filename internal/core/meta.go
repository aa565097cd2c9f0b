package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fsbase"
	"muxfs/internal/journal"
	"muxfs/internal/vfs"
)

// opMuxHost is the Mux-specific record carrying a file's host tier
// (A = ino, B = tier id); everything else uses the shared fsrec vocabulary.
const opMuxHost = 20

// opMuxReplica records the replica ledger state of a file: A = ino, B =
// replica tier (-1 = unreplicated), Payload[0] = 1 when the mirror is
// degraded. Without this record the replica mark lived only in memory, so a
// crash after SetReplica recovered a file whose mirror bytes sat orphaned on
// the replica tier, and a crash after ClearReplica resurrected a "clean"
// replica whose mirror had already been punched.
const opMuxReplica = 21

// metaLog persists Mux's own metadata — the Block Lookup Table, affinity,
// and namespace — through a journal on a dedicated device ("its own
// separate metafile storage", §3.1). Records buffer in memory and group-
// commit at metaFlush (Sync paths); commits are ordered after tier syncs so
// recovered BLT state never references data the tiers lost.
//
// Flushes are single-flight: one caller becomes the flusher and commits the
// whole pending buffer; concurrent callers wait on cond until the records
// they observed are covered, then return — they never queue behind each
// other on a flush mutex, so N syncing goroutines pay one journal commit,
// not N.
type metaLog struct {
	dev *device.Device
	jnl *journal.Dual
	// ckptBytes is the periodic-checkpoint threshold: a flush that leaves
	// more than this many bytes in the active log triggers compaction, so
	// crash recovery replays O(delta since the last checkpoint) rather than
	// O(entire operation history).
	ckptBytes int64

	mu   sync.Mutex // guards everything below up to files; never held during I/O
	cond *sync.Cond
	// pending holds the buffered records, their payloads encoded into its
	// arena. spare is the emptied batch of the last flush; the next flush
	// swaps it in for pending, so steady-state logging reuses two batches.
	pending fsrec.Batch
	spare   fsrec.Batch
	seq     uint64 // records ever appended
	// flushedSeq is the high-water mark of records resolved by a flush —
	// committed, or consumed by a failed commit (parity with the old
	// behavior: a failed flush drops its batch rather than retrying it).
	flushedSeq uint64
	flushing   bool
	// lastErr/lastTo attribute a failed flush to the waiters whose records
	// it consumed. A later successful flush clears lastErr; a waiter that
	// wakes only then misses the error — a benign corner: its records are
	// gone either way, and the error already surfaced to the flusher.
	lastErr error
	lastTo  uint64
	// reclaim holds paths whose unreferenced tier state must be reclaimed
	// AFTER the commit covering their records. Destructive ops (remove,
	// truncate, punch) queue here instead of destroying tier state inline:
	// tier-side destruction is durable immediately on a synchronous tier
	// (novafs), so destroying before the record committed left recovered
	// metadata referencing data the tier had already lost.
	reclaim []string
	// reclaiming counts, per path, the reclaims a flusher has taken from
	// reclaim and not finished yet (settleReclaim waits them out).
	reclaiming map[string]int

	// metaCompact's scratch, reused by the one flusher: the files of the
	// namespace walk, and the staging buffer of one snapshot record's
	// payload.
	files []*muxFile
	snap  []byte
}

func newMetaLog(dev *device.Device) (*metaLog, error) {
	if !dev.Profile().ByteAddressable {
		return nil, fmt.Errorf("mux: meta device %s should be byte-addressable (PM-class)", dev.Profile().Name)
	}
	jnl, err := journal.NewDual(dev, 0, dev.Capacity())
	if err != nil {
		return nil, fmt.Errorf("mux: meta journal: %w", err)
	}
	ml := &metaLog{dev: dev, jnl: jnl, ckptBytes: jnl.Size() / 2, reclaiming: map[string]int{}}
	ml.cond = sync.NewCond(&ml.mu)
	return ml, nil
}

// add buffers op's record, its payload encoded into the pending batch.
// Caller holds ml.mu.
func (ml *metaLog) add(op fsrec.Op) {
	ml.pending.Add(op)
	ml.seq++
}

// addRecord buffers one of Mux's own records (host, replica), its payload
// copied into the pending batch. Caller holds ml.mu.
func (ml *metaLog) addRecord(r journal.Record) {
	ml.pending.AddRecord(r)
	ml.seq++
}

// metaAppendReclaim buffers op's record together with a deferred-reclaim
// path: once a flush commits the record, reclaimPaths punches/removes
// whatever tier state of path the committed metadata no longer references.
// Record and path move atomically, so reclamation can never run ahead of
// its record's commit. Caller must have a meta journal; may hold f.mu.
func (m *Mux) metaAppendReclaim(path string, op fsrec.Op) {
	ml := m.meta
	ml.mu.Lock()
	ml.add(op)
	ml.reclaim = append(ml.reclaim, path)
	ml.mu.Unlock()
}

// maxSpareBatch bounds the bytes of the batch a flush keeps for reuse, so
// a bulk load's one-off giant batch is not pinned for the life of the Mux.
const maxSpareBatch = 256 << 10

// metaFlush commits buffered records, compacting the journal when full.
// Must be called WITHOUT any f.mu held (compaction locks files). Concurrent
// callers coalesce: whoever finds no flush in progress commits everything
// pending; the rest wait until their records' sequence is covered.
func (m *Mux) metaFlush() error {
	if m.meta == nil {
		return nil
	}
	ml := m.meta
	ml.mu.Lock()
	target := ml.seq
	for {
		if ml.flushedSeq >= target {
			var err error
			if ml.lastErr != nil && ml.lastTo >= target {
				err = ml.lastErr
			}
			ml.mu.Unlock()
			return err
		}
		if !ml.flushing {
			break
		}
		ml.cond.Wait()
	}
	ml.flushing = true
	stolen := ml.pending
	ml.pending, ml.spare = ml.spare, fsrec.Batch{}
	reclaim := ml.reclaim
	ml.reclaim = nil
	for _, p := range reclaim {
		ml.reclaiming[p]++
	}
	to := ml.seq
	ml.mu.Unlock()

	var err error
	if n := len(stolen.Recs); n > 0 {
		t0 := m.telStart()
		err = ml.jnl.Commit(stolen.Recs)
		if errors.Is(err, journal.ErrFull) {
			// The snapshot reflects every effect the stolen records
			// describe, so they are superseded wholesale.
			err = m.metaCompact()
		} else if err == nil && ml.jnl.UsedBytes() > ml.ckptBytes {
			// Periodic checkpoint: compact well before the log fills, so
			// recovery replay stays O(delta) instead of O(history).
			err = m.metaCompact()
		}
		m.telFlush(n, t0, err)
	}

	ml.mu.Lock()
	if stolen.Bytes() <= maxSpareBatch {
		stolen.Reset()
		ml.spare = stolen
	}
	ml.flushing = false
	ml.flushedSeq = to
	ml.lastErr, ml.lastTo = err, to
	ml.cond.Broadcast()
	ml.mu.Unlock()

	// Deferred destructive work, strictly after the covering commit. On a
	// failed commit the batch is dropped (see flushedSeq) and the tier state
	// stays put — the remount scrub reclaims it later.
	if len(reclaim) > 0 {
		if err == nil {
			m.reclaimPaths(reclaim)
		}
		ml.reclaimed(reclaim)
	}
	return err
}

// reclaimed marks the reclaims of paths a flusher took as finished and
// wakes settleReclaim waiters.
func (ml *metaLog) reclaimed(paths []string) {
	ml.mu.Lock()
	for _, p := range paths {
		if ml.reclaiming[p]--; ml.reclaiming[p] == 0 {
			delete(ml.reclaiming, p)
		}
	}
	ml.cond.Broadcast()
	ml.mu.Unlock()
}

// settleReclaim runs every deferred reclaim of path — queued, or taken by a
// flusher that has not finished it — before the caller re-creates path in
// the namespace. A reclaim that ran after the re-creation would see the new
// file's references and keep the removed file's stale tier state at path.
// Must be called without any f.mu held (it may flush).
func (m *Mux) settleReclaim(path string) error {
	ml := m.meta
	if ml == nil {
		return nil
	}
	ml.mu.Lock()
	defer ml.mu.Unlock()
	for {
		if slices.Contains(ml.reclaim, path) {
			ml.mu.Unlock()
			err := m.metaFlush()
			ml.mu.Lock()
			if err != nil {
				return err
			}
			continue
		}
		if ml.reclaiming[path] == 0 {
			return nil
		}
		ml.cond.Wait()
	}
}

// reclaimPaths reclaims tier state the committed metadata no longer
// references — the deferred half of Remove, shrinking Truncate, and
// PunchHole. Reuses the scrub's reference-set subtraction, which makes it
// precise under live traffic: a path re-created or re-written since the
// destructive op keeps every range its current BLT references. Errors are
// swallowed; reclamation is idempotent and the remount scrub is the
// backstop.
func (m *Mux) reclaimPaths(paths []string) {
	done := make(map[string]bool, len(paths))
	for _, p := range paths {
		if done[p] {
			continue
		}
		done[p] = true
		for _, t := range m.Tiers() {
			_, _ = m.scrubFile(t, p, true)
		}
	}
}

// metaCompact replaces the journal with a snapshot of current Mux state via
// the dual-region flip (journal.Dual): the snapshot commits into the spare
// half before the superblock flips, so a crash at any point during
// compaction recovers either the complete old log or the complete snapshot.
// Records encode onto the snapshot's pages as they are appended, through
// the log's reused scratch, so the snapshot costs no heap per file.
// Caller is the single in-progress flusher (ml.flushing) and holds no f.mu.
func (m *Mux) metaCompact() error {
	ml := m.meta
	files := ml.files[:0]
	err := ml.jnl.Compact(func(tx *journal.Tx) {
		add := func(op fsrec.Op) {
			var r journal.Record
			r, ml.snap = op.AppendRecord(ml.snap[:0])
			tx.Append(r)
		}
		// Directories go first, as the walk visits them; the files are
		// collected and logged after, each under its own f.mu.
		m.ns.WalkAll(func(path string, e fsbase.Entry[*muxFile]) {
			if e.IsDir() {
				add(fsrec.Op{Type: fsrec.OpMkdir, Ino: e.Ino, Path: path, Mode: vfs.ModeDir | 0o755})
			} else {
				files = append(files, e.File)
			}
		})
		for _, f := range files {
			f.mu.Lock()
			add(fsrec.Op{Type: fsrec.OpCreate, Ino: f.ino, Path: f.path, Mode: f.meta.Mode})
			tx.Append(journal.Record{Type: opMuxHost, A: int64(f.ino), B: int64(f.aff.Size)})
			if f.replica >= 0 {
				tx.Append(replicaRecord(f))
			}
			add(fsrec.Op{
				Type: fsrec.OpSetAttr, Ino: f.ino,
				Size: f.meta.Size, Mode: f.meta.Mode,
				MTime: f.meta.ModTime, ATime: time.Duration(f.atimeA.Load()), CTime: f.meta.CTime,
			})
			f.blt.Walk(func(off, n int64, tier int) bool {
				add(fsrec.Op{
					Type: fsrec.OpExtent, Ino: f.ino, Off: off, Delta: int64(tier), N: n,
					Size: f.meta.Size, MTime: f.meta.ModTime,
				})
				return true
			})
			f.mu.Unlock()
		}
	})
	clear(files) // removed files must not stay reachable from the scratch
	ml.files = files[:0]
	if err != nil {
		return fmt.Errorf("mux: meta compaction: %w", err)
	}
	return nil
}

// --- Logging helpers; callers hold f.mu where a muxFile is involved. ---

// logOp buffers op's record. Cheap and lock-light: callers may hold f.mu.
// Without a meta journal it encodes nothing.
func (m *Mux) logOp(op fsrec.Op) {
	if ml := m.meta; ml != nil {
		ml.mu.Lock()
		ml.add(op)
		ml.mu.Unlock()
	}
}

func (m *Mux) logCreate(f *muxFile, host int) {
	ml := m.meta
	if ml == nil {
		return
	}
	ml.mu.Lock()
	ml.add(fsrec.Op{Type: fsrec.OpCreate, Ino: f.ino, Path: f.loadPath(), Mode: 0o644})
	ml.addRecord(journal.Record{Type: opMuxHost, A: int64(f.ino), B: int64(host)})
	ml.mu.Unlock()
}

// logBLTRange serializes current BLT entries of a range straight into the
// pending batch. Caller holds f.mu.
func (m *Mux) logBLTRange(f *muxFile, off, n int64) {
	if m.meta == nil || n <= 0 {
		return
	}
	f.segs = f.blt.AppendSegments(f.segs[:0], off, n)
	ml := m.meta
	ml.mu.Lock()
	for _, seg := range f.segs {
		if seg.Hole {
			continue
		}
		ml.add(fsrec.Op{
			Type: fsrec.OpExtent, Ino: f.ino, Off: seg.Off, Delta: int64(seg.Val), N: seg.Len,
			Size: f.meta.Size, MTime: f.meta.ModTime,
		})
	}
	ml.add(fsrec.Op{Type: fsrec.OpSizeTime, Ino: f.ino, Size: f.meta.Size, MTime: f.meta.ModTime})
	ml.mu.Unlock()
}

// degradedMark is the payload of a degraded replica's record. Records
// that carry it are copied before they are kept, so it is never written.
var degradedMark = []byte{1}

// replicaRecord serializes a file's replica ledger state. Caller holds f.mu.
func replicaRecord(f *muxFile) journal.Record {
	var pl []byte
	if f.replicaDegraded {
		pl = degradedMark
	}
	return journal.Record{Type: opMuxReplica, A: int64(f.ino), B: int64(f.replica), Payload: pl}
}

// logReplica records every replica-state transition (set, clear, degrade,
// repair) so the mark survives a crash in lockstep with the mirror bytes.
// Caller holds f.mu.
func (m *Mux) logReplica(f *muxFile) {
	if ml := m.meta; ml != nil {
		ml.mu.Lock()
		ml.addRecord(replicaRecord(f))
		ml.mu.Unlock()
	}
}

// replayBatch is how many per-inode records replay buffers before it
// applies them. It bounds replay's memory whatever the log's length, and
// it is the unit of parallel work.
const replayBatch = 4096

// minParallelBatch is the smallest batch applied on more than one
// goroutine: below it the hand-off costs more than it saves.
const minParallelBatch = 512

// inoRec is one buffered per-inode record; its payload is
// replayer.payloads[at : at+n]. f is resolved when the batch applies.
type inoRec struct {
	f     *muxFile
	ino   uint64
	b     int64
	at, n int32
	typ   uint8
}

// replayer applies the meta log as the journal reads it.
type replayer struct {
	m        *Mux
	recs     []inoRec
	payloads []byte
	// removed holds the inodes of the files the log removed. A handle
	// opened before a Remove can still write, so a removed inode's
	// records can follow its remove record; replay drops them.
	removed map[uint64]bool
	n       int // records taken, for RecoveryStats
}

// replay rebuilds Mux state from the journal in one pass, applying records
// as they are read, and returns the number of records it took.
// Namespace-structural records (create, mkdir, remove, rename) apply at
// once, in log order: their cross-file ordering matters.
// Per-inode records (extents, sizes, attributes, host, replica) buffer in
// a batch of replayBatch records, which applies on RecoveryWorkers
// goroutines when it fills, before a remove, and at the end of the log.
// Records of different inodes commute, and each inode's records go to one
// goroutine in log order. So replay holds one batch, not the log.
//
// Recovery is quiesced — no concurrent user ops — so records mutate file
// state directly, and files are built unpublished; Recover publishes
// every file's lock-free snapshots afterward. Replay is tolerant of
// re-applied records (the compaction snapshot may overlap trailing per-op
// records), so every case is idempotent.
func (ml *metaLog) replay(m *Mux) (int, error) {
	rp := &replayer{m: m, removed: map[uint64]bool{}}
	if _, err := ml.jnl.Replay(rp.record); err != nil {
		return rp.n, err
	}
	if err := rp.flush(); err != nil {
		return rp.n, err
	}
	if len(rp.recs) > 0 {
		return rp.n, fmt.Errorf("mux replay: records for unknown inode %d", rp.recs[0].ino)
	}
	return rp.n, nil
}

// record takes one replayed record, valid only during the call.
func (rp *replayer) record(r journal.Record) error {
	rp.n++
	switch r.Type {
	case opMuxHost, opMuxReplica,
		fsrec.OpExtent, fsrec.OpSizeTime, fsrec.OpSetAttr, fsrec.OpTruncate, fsrec.OpPunch:
		// Per-inode records route by Record.A (the inode) without
		// decoding; fsrec.Parse runs when the batch applies, in parallel.
		at := len(rp.payloads)
		rp.payloads = append(rp.payloads, r.Payload...)
		rp.recs = append(rp.recs, inoRec{ino: uint64(r.A), b: r.B, at: int32(at), n: int32(len(r.Payload)), typ: r.Type})
		if len(rp.recs) >= replayBatch {
			return rp.flush()
		}
		return nil
	case fsrec.OpCreate, fsrec.OpMkdir, fsrec.OpRemove, fsrec.OpRename:
		op, err := fsrec.Parse(r)
		if err != nil {
			return err
		}
		if op.Type == fsrec.OpRemove {
			// A removed file's buffered records apply first, so the
			// remove unwinds the tier usage they add. Renames need no
			// barrier: per-inode records do not read the path.
			if err := rp.flush(); err != nil {
				return err
			}
		}
		return rp.structural(op)
	default:
		return fmt.Errorf("mux replay: unhandled op %d", r.Type)
	}
}

// flush applies the buffered batch and drops the records of removed
// inodes. A record whose inode has no file yet stays buffered for the next
// batch: a write can log a new file's extents before its create record,
// because Create logs after it publishes the file.
func (rp *replayer) flush() error {
	var f *muxFile
	for i := range rp.recs {
		r := &rp.recs[i]
		if f == nil || f.ino != r.ino {
			f = rp.m.files.get(r.ino)
		}
		r.f = f
	}
	workers := int(rp.m.recWorkers.Load())
	if workers <= 1 || len(rp.recs) < minParallelBatch {
		if err := rp.apply(0, 1); err != nil {
			return err
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = rp.apply(w, workers)
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	// Keep the records of inodes not created yet, in order.
	kept, size := 0, int32(0)
	for _, r := range rp.recs {
		if r.f != nil || rp.removed[r.ino] {
			continue
		}
		copy(rp.payloads[size:], rp.payloads[r.at:r.at+r.n])
		r.at = size
		size += r.n
		rp.recs[kept] = r
		kept++
	}
	clear(rp.recs[kept:])
	rp.recs, rp.payloads = rp.recs[:kept], rp.payloads[:size]
	return nil
}

// apply applies the batch's records of the inodes ino ≡ part (mod parts),
// each inode's in log order.
func (rp *replayer) apply(part, parts int) error {
	for i := range rp.recs {
		r := &rp.recs[i]
		if r.f == nil || int(r.ino%uint64(parts)) != part {
			continue
		}
		rec := journal.Record{Type: r.typ, A: int64(r.ino), B: r.b, Payload: rp.payloads[r.at : r.at+r.n]}
		if err := rp.m.applyInoRecord(r.f, rec); err != nil {
			return err
		}
	}
	return nil
}

// structural applies a single structural record.
func (rp *replayer) structural(op fsrec.Op) error {
	m := rp.m
	switch op.Type {
	case fsrec.OpCreate:
		_, err := m.ns.CreateFile(op.Path, op.Mode, op.Ino, func(ino uint64) (*muxFile, error) {
			nf := unpublishedFile(ino, op.Path, 0, -1)
			m.files.put(ino, nf)
			return nf, nil
		})
		if errors.Is(err, vfs.ErrExist) {
			return nil // idempotent re-apply
		}
		if err != nil {
			return fmt.Errorf("mux replay create %q: %w", op.Path, err)
		}

	case fsrec.OpMkdir:
		if _, err := m.ns.Mkdir(op.Path, op.Mode, nil); err != nil && !errors.Is(err, vfs.ErrExist) {
			return fmt.Errorf("mux replay mkdir %q: %w", op.Path, err)
		}
		m.ns.BumpIno(op.Ino)

	case fsrec.OpRemove:
		info, err := m.ns.Remove(op.Path, nil)
		if errors.Is(err, vfs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("mux replay remove %q: %w", op.Path, err)
		}
		if f := info.File; f != nil {
			// Unwind the tier usage of the records already applied.
			f.blt.Walk(func(_, n int64, tier int) bool {
				m.tierRec(tier).used.Add(-n)
				return true
			})
			m.files.del(info.Ino)
			rp.removed[info.Ino] = true
		}

	case fsrec.OpRename:
		_, moved, err := m.ns.Rename(op.Path, op.Path2, nil)
		if errors.Is(err, vfs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("mux replay rename: %w", err)
		}
		repath(moved)
		// The record commits BEFORE the tier-level renames run
		// (Mux.Rename), so a crash in between leaves tier files at the
		// old path. Register a fixup for the post-recovery scrub; its
		// guards make already-completed (or superseded) renames no-ops.
		m.renameFix = append(m.renameFix, renameFixup{old: op.Path, new: op.Path2})
	}
	return nil
}

// applyInoRecord applies one per-inode record to f. It remaps the BLT
// without publishing it: Recover publishes every file once after replay.
// The journal is input from outside the program, so every tier id a record
// carries must name a tier before it indexes anything.
func (m *Mux) applyInoRecord(f *muxFile, r journal.Record) error {
	switch r.Type {
	case opMuxHost:
		host := int(r.B)
		if err := m.replayTier(host, true); err != nil {
			return err
		}
		f.aff = affinity{Size: host, MTime: host}
		f.affATime.Store(int32(host))
		if host >= 0 {
			f.onTiers[host] = true
		}
		return nil
	case opMuxReplica:
		tier := int(r.B)
		if err := m.replayTier(tier, true); err != nil {
			return err
		}
		if tier < 0 {
			f.replica = -1
			f.replicaDegraded = false
		} else {
			f.replica = tier
			f.replicaDegraded = len(r.Payload) > 0 && r.Payload[0] != 0
			f.onTiers[tier] = true
		}
		return nil
	}
	op, err := fsrec.Parse(r)
	if err != nil {
		return err
	}
	switch op.Type {
	case fsrec.OpExtent:
		tier := int(op.Delta)
		if err := m.replayTier(tier, false); err != nil {
			return err
		}
		m.bltRemap(f, op.Off, op.N, tier)
		f.onTiers[tier] = true
		if op.Size > f.meta.Size {
			f.meta.Size = op.Size
		}
		f.meta.ModTime = op.MTime

	case fsrec.OpSizeTime:
		if op.Size > f.meta.Size {
			f.meta.Size = op.Size
		}
		f.meta.ModTime = op.MTime

	case fsrec.OpSetAttr:
		if op.Size < f.meta.Size {
			m.bltUnmap(f, op.Size, f.meta.Size-op.Size)
		}
		f.meta.Size = op.Size
		f.meta.Mode = op.Mode
		f.meta.ModTime = op.MTime
		f.meta.ATime = op.ATime
		f.meta.CTime = op.CTime

	case fsrec.OpTruncate:
		if op.Size < f.meta.Size {
			m.bltUnmap(f, op.Size, f.meta.Size-op.Size)
		}
		f.meta.Size = op.Size
		f.meta.ModTime = op.MTime

	case fsrec.OpPunch:
		first := (op.Off + BlockSize - 1) / BlockSize * BlockSize
		last := (op.Off + op.N) / BlockSize * BlockSize
		if last > first {
			m.bltUnmap(f, first, last-first)
		}
		f.meta.ModTime = op.MTime
	}
	return nil
}

// replayTier checks a tier id a replayed record carries: it must name a
// tier, removed ones included (the log predates their removal), or be -1
// where the record allows no tier.
func (m *Mux) replayTier(id int, noneOK bool) error {
	if (noneOK && id == -1) || m.tierRec(id) != nil {
		return nil
	}
	return fmt.Errorf("mux replay: record names unknown tier %d", id)
}
