package fsbase

import (
	"errors"
	"fmt"
	"sort"

	"muxfs/internal/fs/fsrec"
	"muxfs/internal/journal"
)

// CommitLog writes recs as one committed transaction. published says
// whether their effect is visible already, as a group commit's batch's
// is. A full journal compacts to a snapshot of the published state: it
// is the commit of published records (appending them again would make
// replay apply them twice), and an unpublished op's records follow it in
// its transaction, so a snapshot never stands in for an op that may yet
// be dropped. Caller holds Mu.
func (fs *FS) CommitLog(recs []journal.Record, published bool) error {
	err := fs.Log.Commit(recs)
	if !errors.Is(err, journal.ErrFull) {
		return err
	}
	if published {
		recs = nil
	}
	return fs.compact(recs)
}

// compact rewrites the journal as a snapshot of the published state,
// followed by tail. The dual journal makes it crash-atomic: the snapshot
// commits into the spare half before the superblock flips, so no crash
// point loses the log. Each record's payload is staged in fs.snap and
// encoded onto the snapshot's pages as it is appended, so the snapshot
// costs no heap per file. Caller holds Mu.
func (fs *FS) compact(tail []journal.Record) error {
	err := fs.Log.Compact(func(tx *journal.Tx) {
		add := func(op fsrec.Op) {
			var r journal.Record
			r, fs.snap = op.AppendRecord(fs.snap[:0])
			tx.Append(r)
		}
		fs.NS.WalkHeld(func(path string, e Entry[*Inode]) {
			if e.IsDir() {
				add(fsrec.Op{Type: fsrec.OpMkdir, Ino: e.Ino, Path: path, Mode: e.Mode})
				return
			}
			ino := e.File
			add(fsrec.Op{Type: fsrec.OpCreate, Ino: e.Ino, Path: path, Mode: ino.Meta.Mode})
			add(setAttrOp(e.Ino, &ino.Meta))
			ino.Ext.Walk(func(off, n, delta int64) bool {
				add(fsrec.Op{Type: fsrec.OpExtent, Ino: e.Ino, Off: off, Delta: delta, N: n,
					Size: ino.Meta.Size, MTime: ino.Meta.ModTime})
				return true
			})
		})
		for _, r := range tail {
			tx.Append(r)
		}
	})
	if err != nil {
		return fmt.Errorf("%s: journal compaction: %w", fs.name, err)
	}
	return nil
}

// apply replays one committed journal record during Recover. Caller holds
// Mu over a reset state.
func (fs *FS) apply(r journal.Record) error {
	op, err := fsrec.Parse(r)
	if err != nil {
		return err
	}
	switch op.Type {
	case fsrec.OpCreate:
		e, err := fs.NS.CreateFile(op.Path, op.Mode, op.Ino, func(uint64) (*Inode, error) {
			return &Inode{Meta: Meta{Mode: op.Mode}}, nil
		})
		if err != nil {
			return fmt.Errorf("replay create %q: %w", op.Path, err)
		}
		fs.Inodes[e.Ino] = e.File
		return nil
	case fsrec.OpMkdir:
		if _, err := fs.NS.Mkdir(op.Path, op.Mode, nil); err != nil {
			return fmt.Errorf("replay mkdir %q: %w", op.Path, err)
		}
		fs.NS.BumpIno(op.Ino)
		return nil
	case fsrec.OpRemove:
		e, err := fs.NS.Remove(op.Path, nil)
		if err != nil {
			return fmt.Errorf("replay remove %q: %w", op.Path, err)
		}
		fs.dropInode(e.Ino)
		return nil
	case fsrec.OpRename:
		if _, _, err := fs.NS.Rename(op.Path, op.Path2, nil); err != nil {
			return fmt.Errorf("replay rename %q->%q: %w", op.Path, op.Path2, err)
		}
		return nil
	}

	ino, ok := fs.Inodes[op.Ino]
	if !ok {
		return fmt.Errorf("replay op %d: unknown inode %d", op.Type, op.Ino)
	}
	switch op.Type {
	case fsrec.OpExtent:
		// A remap record (copy-on-write truncate/punch edge) supersedes live
		// mappings: free the blocks it replaces, as the foreground op did.
		for _, seg := range ino.Ext.Segments(op.Off, op.N) {
			if !seg.Hole {
				fs.be.Free(seg.Off+seg.Val, seg.Len)
			}
		}
		ino.Ext.Insert(op.Off, op.N, op.Delta)
		fs.be.MarkUsed(op.Off+op.Delta, op.N)
		ino.Meta.Size = max(ino.Meta.Size, op.Size)
	case fsrec.OpSizeTime:
		ino.Meta.Size = max(ino.Meta.Size, op.Size)
	case fsrec.OpSetAttr:
		if op.Size < ino.Meta.Size {
			fs.dropTail(ino, op.Ino, op.Size)
		}
		ino.Meta.Size, ino.Meta.Mode, ino.Meta.ATime, ino.Meta.CTime = op.Size, op.Mode, op.ATime, op.CTime
	case fsrec.OpPunch:
		fs.freeRange(ino, op.Ino, op.Off, op.N)
	case fsrec.OpTruncate:
		if op.Size < ino.Meta.Size {
			fs.dropTail(ino, op.Ino, op.Size)
		}
		ino.Meta.Size = op.Size
	default:
		return fmt.Errorf("replay: unhandled op type %d", op.Type)
	}
	ino.Meta.ModTime = op.MTime
	return nil
}

// scrub zeroes the free data space after replay so deleted files' stale
// contents cannot leak into fresh partial-page allocations. It discards
// only the gaps between referenced extents, so it costs O(live extents),
// not O(device capacity): a per-page walk made recovery of a near-empty
// HDD tier the slowest step of a remount. Caller holds Mu.
func (fs *FS) scrub() {
	pos := fs.DataStart
	for _, r := range fs.deviceRuns() {
		if r.off > pos {
			fs.Dev.Discard(pos, r.off-pos)
		}
		pos = max(pos, r.end)
	}
	if c := fs.Dev.Capacity(); c > pos {
		fs.Dev.Discard(pos, c-pos)
	}
}

// devRun is the device range [off, end) a mapping of inode num covers.
type devRun struct {
	off, end int64
	num      uint64
}

// deviceRuns lists the device pages every extent map references, as
// ranges in device order. Caller holds Mu.
func (fs *FS) deviceRuns() []devRun {
	var runs []devRun
	for num, ino := range fs.Inodes {
		ino.Ext.Walk(func(off, n, delta int64) bool {
			dev := off + delta
			runs = append(runs, devRun{dev / PageSize * PageSize, (dev + n + PageSize - 1) / PageSize * PageSize, num})
			return true
		})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].off < runs[j].off })
	return runs
}
