package fsbase

import (
	"time"

	"muxfs/internal/extent"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/vfs"
)

// file is an open handle of a native file system.
type file struct {
	fs     *FS
	path   string
	ino    uint64
	closed bool
}

var _ vfs.File = (*file)(nil)

// node returns the inode, or an error if the handle is closed or the file
// was removed underneath it. Caller holds Mu.
func (f *file) node() (*Inode, error) {
	if f.closed {
		return nil, vfs.ErrClosed
	}
	ino, ok := f.fs.Inodes[f.ino]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	return ino, nil
}

// Path returns the path the handle was opened with.
func (f *file) Path() string { return f.path }

// ReadAt reads through the backend's data path.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.fs.Mu.Lock()
	defer f.fs.Mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return 0, vfs.Errf("read", f.fs.name, f.path, err)
	}
	return f.fs.be.Read(ino, f.ino, p, off)
}

// WriteAt writes through the backend's data path.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	f.fs.Mu.Lock()
	defer f.fs.Mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return 0, vfs.Errf("write", f.fs.name, f.path, err)
	}
	return f.fs.be.Write(ino, f.ino, p, off)
}

// Truncate sets the logical size.
func (f *file) Truncate(size int64) error {
	if size < 0 {
		return vfs.Errf("truncate", f.fs.name, f.path, vfs.ErrInvalid)
	}
	f.fs.Mu.Lock()
	defer f.fs.Mu.Unlock()
	ino, err := f.node()
	if err == nil {
		err = f.fs.truncate(ino, f.ino, size)
	}
	if err != nil {
		return vfs.Errf("truncate", f.fs.name, f.path, err)
	}
	return nil
}

// Sync makes the file durable.
func (f *file) Sync() error {
	f.fs.Mu.Lock()
	defer f.fs.Mu.Unlock()
	_, err := f.node()
	if err == nil {
		err = f.fs.be.SyncFile(f.ino)
	}
	if err != nil {
		return vfs.Errf("sync", f.fs.name, f.path, err)
	}
	return nil
}

// Close releases the handle.
func (f *file) Close() error {
	f.closed = true
	return nil
}

// Stat returns current metadata.
func (f *file) Stat() (vfs.FileInfo, error) {
	f.fs.Mu.Lock()
	defer f.fs.Mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return vfs.FileInfo{}, vfs.Errf("stat", f.fs.name, f.path, err)
	}
	return ino.info(f.path), nil
}

// Extents lists allocated runs in file-offset order, merging runs that are
// adjacent in file space (physical contiguity is irrelevant to callers).
func (f *file) Extents() ([]vfs.Extent, error) {
	f.fs.Mu.Lock()
	defer f.fs.Mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return nil, vfs.Errf("extents", f.fs.name, f.path, err)
	}
	var out []vfs.Extent
	ino.Ext.Walk(func(off, n int64, _ int64) bool {
		if len(out) > 0 && out[len(out)-1].End() == off {
			out[len(out)-1].Len += n
		} else {
			out = append(out, vfs.Extent{Off: off, Len: n})
		}
		return true
	})
	return out, nil
}

// PunchHole deallocates whole pages inside the range and zeroes the ragged
// edges.
func (f *file) PunchHole(off, n int64) error {
	if off < 0 || n < 0 {
		return vfs.Errf("punch", f.fs.name, f.path, vfs.ErrInvalid)
	}
	if n == 0 {
		return nil
	}
	f.fs.Mu.Lock()
	defer f.fs.Mu.Unlock()
	ino, err := f.node()
	if err == nil {
		err = f.fs.punch(ino, f.ino, off, n)
	}
	if err != nil {
		return vfs.Errf("punch", f.fs.name, f.path, err)
	}
	return nil
}

// truncate implements Truncate. Caller holds Mu.
func (fs *FS) truncate(ino *Inode, num uint64, size int64) error {
	fs.Clk.Advance(fs.Costs.MetaOp)
	now := fs.Clk.Now()
	fs.ops.Reset()
	if size < ino.Meta.Size {
		if err := fs.shrink(ino, num, size, now); err != nil {
			return err
		}
	}
	ino.Meta.Size = size
	ino.Meta.ModTime = now
	ino.Meta.CTime = now
	fs.ops.Add(fsrec.Op{Type: fsrec.OpTruncate, Ino: num, Size: size, MTime: now})
	return fs.be.Commit(fs.ops.Recs)
}

// punch implements PunchHole. Caller holds Mu.
func (fs *FS) punch(ino *Inode, num uint64, off, n int64) error {
	fs.Clk.Advance(fs.Costs.MetaOp)
	end := min(off+n, ino.Meta.Size)
	if end <= off {
		return nil
	}
	now := fs.Clk.Now()
	// Ragged edges are rewritten copy-on-write (see copyEdge) so the old
	// bytes stay intact until the punch transaction commits. Both edges are
	// copied before either is remapped: a failed second copy must leave the
	// first unapplied, or its old block would be freed with no record.
	var head, tail edge
	var err error
	firstWhole := (off + PageSize - 1) / PageSize * PageSize
	lastWhole := end / PageSize * PageSize
	if firstWhole > lastWhole { // range inside one page
		head, err = fs.copyEdge(ino, num, off, end)
	} else if head, err = fs.copyEdge(ino, num, off, firstWhole); err == nil {
		if tail, err = fs.copyEdge(ino, num, lastWhole, end); err != nil {
			fs.dropEdge(head)
		}
	}
	if err != nil {
		return err
	}
	fs.ops.Reset()
	fs.remap(ino, num, head, ino.Meta.Size, now)
	fs.remap(ino, num, tail, ino.Meta.Size, now)
	fs.freeRange(ino, num, off, end-off)
	ino.Meta.ModTime = now
	ino.Meta.CTime = now
	fs.ops.Add(fsrec.Op{Type: fsrec.OpPunch, Ino: num, Off: off, N: end - off, MTime: now})
	return fs.be.Commit(fs.ops.Recs)
}

// shrink releases every mapping at or past size: whole tail pages are
// unmapped, and the new boundary page — whose bytes past size must read
// zero if the file grows back — is rewritten copy-on-write. The remap
// records are added to fs.ops and must join the shrink record's
// transaction. Caller holds Mu and updates ino.Meta.Size afterwards.
func (fs *FS) shrink(ino *Inode, num uint64, size int64, now time.Duration) error {
	if size%PageSize != 0 {
		zTo := min(size/PageSize*PageSize+PageSize, ino.Meta.Size)
		e, err := fs.copyEdge(ino, num, size, zTo)
		if err != nil {
			return err
		}
		fs.remap(ino, num, e, size, now)
	}
	fs.dropTail(ino, num, size)
	return nil
}

// edge is a ragged edge page prepared by copyEdge: the page's mapped runs
// and the device offset of the fresh block holding its new image. segs is
// nil when the range reads zero already and nothing needs remapping.
type edge struct {
	segs      []extent.Segment[int64]
	pageStart int64
	devOff    int64
}

// copyEdge makes the mapped bytes of [zFrom, zTo) — a range inside one
// file page — read zero without touching the live block in place: the
// backend writes the page's image, zeros over the cleared range, to a
// fresh block, and remap then moves the page onto it. Zeroing in place is
// not crash-safe: the zeros could reach the device before the truncate or
// punch record commits, corrupting the old contents if the commit never
// lands. Until remap runs nothing else has changed, so dropEdge undoes
// the copy without a trace. Caller holds Mu.
func (fs *FS) copyEdge(ino *Inode, num uint64, zFrom, zTo int64) (edge, error) {
	if zTo <= zFrom {
		return edge{}, nil
	}
	pageStart := zFrom / PageSize * PageSize
	segs := ino.Ext.Segments(pageStart, PageSize)
	touched := false
	for _, seg := range segs {
		if !seg.Hole && seg.Off < zTo && seg.End() > zFrom {
			touched = true
			break
		}
	}
	if !touched {
		return edge{}, nil // holes already read zero
	}
	devOff, err := fs.be.CopyEdge(num, segs, pageStart, zFrom, zTo)
	if err != nil {
		return edge{}, err
	}
	return edge{segs: segs, pageStart: pageStart, devOff: devOff}, nil
}

// dropEdge undoes a copyEdge that will not be applied: its block is
// discarded and freed.
func (fs *FS) dropEdge(e edge) {
	if e.segs != nil {
		fs.Dev.Discard(e.devOff, PageSize)
		fs.be.Free(e.devOff, PageSize)
	}
}

// remap applies a copyEdge: the page's mapped runs move onto the copy,
// their old blocks are released, and the remap records are added to
// fs.ops. Caller holds Mu.
func (fs *FS) remap(ino *Inode, num uint64, e edge, size int64, now time.Duration) {
	if e.segs == nil {
		return
	}
	fs.be.Remapped(num, e.pageStart)
	delta := e.devOff - e.pageStart
	for _, seg := range e.segs {
		if seg.Hole {
			continue
		}
		fs.be.Release(seg.Off+seg.Val, seg.Len)
		ino.Ext.Insert(seg.Off, seg.Len, delta)
		fs.ops.Add(fsrec.Op{Type: fsrec.OpExtent, Ino: num, Off: seg.Off, Delta: delta,
			N: seg.Len, Size: size, MTime: now})
	}
}

// freeRange unmaps the whole pages inside [off, off+n) and releases their
// blocks; replay frees them instead, since the device already holds the
// final data and a freed block may belong to a newer file (Recover scrubs
// the free space afterwards). Partial edge pages keep their mapping.
// Caller holds Mu.
func (fs *FS) freeRange(ino *Inode, num uint64, off, n int64) {
	start := (off + PageSize - 1) / PageSize * PageSize // first whole page
	end := (off + n) / PageSize * PageSize              // end of last whole page
	if end <= start {
		return
	}
	for _, seg := range ino.Ext.Segments(start, end-start) {
		if seg.Hole {
			continue
		}
		if fs.recovering {
			fs.be.Free(seg.Off+seg.Val, seg.Len)
		} else {
			fs.be.Release(seg.Off+seg.Val, seg.Len)
		}
	}
	ino.Ext.Delete(start, end-start)
	fs.be.Unmapped(num, start, end-start)
}

// dropTail unmaps every page whose bytes all lie at or past size,
// including the partial page at the old EOF (which freeRange's whole-page
// rounding would keep mapped with stale contents). The page containing
// size itself survives when size is mid-page; shrink rewrites it
// copy-on-write. Caller holds Mu.
func (fs *FS) dropTail(ino *Inode, num uint64, size int64) {
	_, hi := ino.Ext.Bounds()
	if end := (hi + PageSize - 1) / PageSize * PageSize; end > size {
		fs.freeRange(ino, num, size, end-size)
	}
}
