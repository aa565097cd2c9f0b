package novafs

import (
	"fmt"

	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fsbase"
	"muxfs/internal/journal"
)

// recSetAttr builds the record of an inode's full attributes.
func recSetAttr(ino uint64, m *fsbase.Meta) journal.Record {
	return fsrec.Op{
		Type: fsrec.OpSetAttr, Ino: ino,
		Size: m.Size, Mode: m.Mode, MTime: m.ModTime, ATime: m.ATime, CTime: m.CTime,
	}.Record()
}

// applyRecord replays one committed log record during Recover. Caller holds
// fs.mu and has reset the in-memory state.
func (fs *FS) applyRecord(r journal.Record) error {
	op, err := fsrec.Parse(r)
	if err != nil {
		return err
	}
	switch op.Type {
	case fsrec.OpCreate:
		node, err := fs.ns.CreateFileIno(op.Path, op.Mode, op.Ino)
		if err != nil {
			return fmt.Errorf("replay create %q: %w", op.Path, err)
		}
		fs.inodes[node.Ino] = &inode{meta: fsbase.Meta{Mode: op.Mode}}

	case fsrec.OpMkdir:
		if _, err := fs.ns.Mkdir(op.Path, op.Mode); err != nil {
			return fmt.Errorf("replay mkdir %q: %w", op.Path, err)
		}
		fs.ns.BumpIno(op.Ino)

	case fsrec.OpRemove:
		node, err := fs.ns.Remove(op.Path)
		if err != nil {
			return fmt.Errorf("replay remove %q: %w", op.Path, err)
		}
		if ino, ok := fs.inodes[node.Ino]; ok {
			fs.dropTail(ino, 0)
			delete(fs.inodes, node.Ino)
		}

	case fsrec.OpRename:
		if _, err := fs.ns.Rename(op.Path, op.Path2); err != nil {
			return fmt.Errorf("replay rename %q->%q: %w", op.Path, op.Path2, err)
		}

	case fsrec.OpExtent:
		ino, ok := fs.inodes[op.Ino]
		if !ok {
			return fmt.Errorf("replay extent: unknown inode %d", op.Ino)
		}
		// A remap record (copy-on-write truncate/punch edge) supersedes live
		// mappings: release the blocks it replaces, as the foreground op did.
		for _, seg := range ino.ext.Segments(op.Off, op.N) {
			if seg.Hole {
				continue
			}
			pm := seg.Off + seg.Val
			for b := pm / PageSize * PageSize; b < pm+seg.Len; b += PageSize {
				fs.pages.FreeBlock((b - fs.dataStart) / PageSize)
			}
		}
		ino.ext.Insert(op.Off, op.N, op.Delta)
		pm := op.Off + op.Delta
		for b := pm; b < pm+op.N; b += PageSize {
			fs.pages.MarkUsed((b - fs.dataStart) / PageSize)
		}
		if op.Size > ino.meta.Size {
			ino.meta.Size = op.Size
		}
		ino.meta.ModTime = op.MTime

	case fsrec.OpSetAttr:
		ino, ok := fs.inodes[op.Ino]
		if !ok {
			return fmt.Errorf("replay setattr: unknown inode %d", op.Ino)
		}
		if op.Size < ino.meta.Size {
			fs.dropTail(ino, op.Size)
		}
		ino.meta.Size = op.Size
		ino.meta.Mode = op.Mode
		ino.meta.ModTime = op.MTime
		ino.meta.ATime = op.ATime
		ino.meta.CTime = op.CTime

	case fsrec.OpSizeTime:
		ino, ok := fs.inodes[op.Ino]
		if !ok {
			return fmt.Errorf("replay sizetime: unknown inode %d", op.Ino)
		}
		if op.Size > ino.meta.Size {
			ino.meta.Size = op.Size
		}
		ino.meta.ModTime = op.MTime

	case fsrec.OpPunch:
		ino, ok := fs.inodes[op.Ino]
		if !ok {
			return fmt.Errorf("replay punch: unknown inode %d", op.Ino)
		}
		fs.freeRange(ino, op.Off, op.N)
		ino.meta.ModTime = op.MTime

	case fsrec.OpTruncate:
		ino, ok := fs.inodes[op.Ino]
		if !ok {
			return fmt.Errorf("replay truncate: unknown inode %d", op.Ino)
		}
		if op.Size < ino.meta.Size {
			fs.dropTail(ino, op.Size)
		}
		ino.meta.Size = op.Size
		ino.meta.ModTime = op.MTime

	default:
		return fmt.Errorf("replay: unhandled op type %d", op.Type)
	}
	return nil
}
