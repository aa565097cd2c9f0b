package blockfs

import (
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/journal"
	"muxfs/internal/vfs"
)

// file is an open blockfs handle.
type file struct {
	fs     *FS
	path   string
	ino    uint64
	closed bool
}

var _ vfs.File = (*file)(nil)

func (f *file) node() (*inode, error) {
	if f.closed {
		return nil, vfs.ErrClosed
	}
	ino, ok := f.fs.inodes[f.ino]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	return ino, nil
}

// Path returns the path the handle was opened with.
func (f *file) Path() string { return f.path }

// ReadAt reads through the page cache.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return 0, vfs.Errf("read", f.fs.name, f.path, err)
	}
	return f.fs.readLocked(ino, f.ino, p, off)
}

// WriteAt writes through to the device; durability comes from Sync.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return 0, vfs.Errf("write", f.fs.name, f.path, err)
	}
	return f.fs.writeLocked(ino, f.ino, p, off)
}

// Truncate sets the logical size.
func (f *file) Truncate(size int64) error {
	if size < 0 {
		return vfs.Errf("truncate", f.fs.name, f.path, vfs.ErrInvalid)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return vfs.Errf("truncate", f.fs.name, f.path, err)
	}
	fs := f.fs
	fs.clk.Advance(fs.costs.MetaOp)
	now := fs.now()
	var recs []journal.Record
	if size < ino.meta.Size {
		ops, err := fs.shrinkExtents(ino, f.ino, size)
		if err != nil {
			return vfs.Errf("truncate", fs.name, f.path, err)
		}
		for _, op := range ops {
			op.Size = size
			op.MTime = now
			recs = append(recs, op.Record())
		}
	}
	ino.meta.Size = size
	ino.meta.ModTime = now
	ino.meta.CTime = now
	recs = append(recs, fsrec.Op{Type: fsrec.OpTruncate, Ino: f.ino, Size: size, MTime: now}.Record())
	if err := fs.queue(recs...); err != nil {
		return vfs.Errf("truncate", fs.name, f.path, err)
	}
	return nil
}

// Sync makes the file durable: ordered data flush plus journal commit
// (fsync semantics; the whole pending batch commits, like a JBD2
// transaction carrying this file's records).
func (f *file) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, err := f.node(); err != nil {
		return vfs.Errf("sync", f.fs.name, f.path, err)
	}
	if err := f.fs.flushCache(f.ino, false); err != nil {
		return vfs.Errf("sync", f.fs.name, f.path, err)
	}
	if err := f.fs.flushPending(); err != nil {
		return vfs.Errf("sync", f.fs.name, f.path, err)
	}
	f.fs.dev.PersistAll()
	return nil
}

// Close releases the handle.
func (f *file) Close() error {
	f.closed = true
	return nil
}

// Stat returns current metadata.
func (f *file) Stat() (vfs.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return vfs.FileInfo{}, vfs.Errf("stat", f.fs.name, f.path, err)
	}
	fi := ino.meta.Info(f.path)
	fi.Blocks = ino.ext.MappedBytes()
	return fi, nil
}

// Extents lists allocated runs merged in file-offset order.
func (f *file) Extents() ([]vfs.Extent, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return nil, vfs.Errf("extents", f.fs.name, f.path, err)
	}
	var out []vfs.Extent
	ino.ext.Walk(func(off, n int64, _ int64) bool {
		if len(out) > 0 && out[len(out)-1].End() == off {
			out[len(out)-1].Len += n
		} else {
			out = append(out, vfs.Extent{Off: off, Len: n})
		}
		return true
	})
	return out, nil
}

// PunchHole deallocates whole pages in the range and zeroes ragged edges.
func (f *file) PunchHole(off, n int64) error {
	if off < 0 || n < 0 {
		return vfs.Errf("punch", f.fs.name, f.path, vfs.ErrInvalid)
	}
	if n == 0 {
		return nil
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return vfs.Errf("punch", f.fs.name, f.path, err)
	}
	fs := f.fs
	fs.clk.Advance(fs.costs.MetaOp)
	end := off + n
	if end > ino.meta.Size {
		end = ino.meta.Size
	}
	if end <= off {
		return nil
	}
	// Ragged edges are rewritten copy-on-write (see cowZeroEdge) so the old
	// bytes stay intact until the punch transaction commits. Both edges are
	// copied before either is remapped: a failed second copy must leave the
	// first unapplied, or its old block would be freed with no record.
	var head, tail edgeCopy
	firstWhole := (off + PageSize - 1) / PageSize * PageSize
	lastWhole := end / PageSize * PageSize
	if firstWhole > lastWhole { // range inside one page
		head, err = fs.cowZeroEdge(ino, f.ino, off, end)
	} else if head, err = fs.cowZeroEdge(ino, f.ino, off, firstWhole); err == nil {
		if tail, err = fs.cowZeroEdge(ino, f.ino, lastWhole, end); err != nil {
			fs.dropEdge(head)
		}
	}
	if err != nil {
		return vfs.Errf("punch", fs.name, f.path, err)
	}
	ops := fs.remapEdge(ino, f.ino, tail, fs.remapEdge(ino, f.ino, head, nil))
	fs.freeRange(ino, f.ino, off, end-off)
	now := fs.now()
	ino.meta.ModTime = now
	ino.meta.CTime = now
	recs := make([]journal.Record, 0, len(ops)+1)
	for _, op := range ops {
		op.Size = ino.meta.Size
		op.MTime = now
		recs = append(recs, op.Record())
	}
	recs = append(recs, fsrec.Op{Type: fsrec.OpPunch, Ino: f.ino, Off: off, N: end - off, MTime: now}.Record())
	if err := fs.queue(recs...); err != nil {
		return vfs.Errf("punch", fs.name, f.path, err)
	}
	return nil
}
