package fsbase

import (
	"io"
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

// ReadAt reads through the backend's data path, up to EOF.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	fs := f.fs
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return 0, vfs.Errf("read", fs.name, f.path, err)
	}
	fs.Clk.Advance(fs.Costs.ReadOp)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if off >= ino.Meta.Size {
		return 0, io.EOF
	}
	n := min(len(p), int(ino.Meta.Size-off))
	if err := fs.be.Read(ino, f.ino, p[:n], off); err != nil {
		return 0, err
	}
	ino.Meta.ATime = fs.Clk.Now()
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt writes through the backend's data path.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	fs := f.fs
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return 0, vfs.Errf("write", fs.name, f.path, err)
	}
	fs.Clk.Advance(fs.Costs.WriteOp)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	pages := (off+int64(len(p))-1)/PageSize - off/PageSize + 1
	fs.Clk.Advance(time.Duration(pages) * fs.Costs.PerPage)
	return fs.be.Write(ino, f.ino, p, off)
}

// do runs op on the handle's inode under Mu; an error, the handle's own
// included, names op and the handle's path.
func (f *file) do(op string, fn func(ino *Inode) error) error {
	f.fs.Mu.Lock()
	defer f.fs.Mu.Unlock()
	ino, err := f.node()
	if err == nil {
		err = fn(ino)
	}
	if err != nil {
		return vfs.Errf(op, f.fs.name, f.path, err)
	}
	return nil
}

// Truncate sets the logical size.
func (f *file) Truncate(size int64) error {
	if size < 0 {
		return vfs.Errf("truncate", f.fs.name, f.path, vfs.ErrInvalid)
	}
	return f.do("truncate", func(ino *Inode) error { return f.fs.truncate(ino, f.ino, size) })
}

// Sync makes the file durable.
func (f *file) Sync() error {
	return f.do("sync", func(*Inode) error { return f.fs.be.SyncFile(f.ino) })
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
	return f.do("punch", func(ino *Inode) error { return f.fs.punch(ino, f.ino, off, n) })
}

// truncate implements Truncate. Caller holds Mu.
func (fs *FS) truncate(ino *Inode, num uint64, size int64) error {
	fs.Clk.Advance(fs.Costs.MetaOp)
	now := fs.Clk.Now()
	if err := fs.resize(ino, num, size, now, fsrec.Op{Type: fsrec.OpTruncate, Ino: num, Size: size, MTime: now}); err != nil {
		return err
	}
	ino.Meta.Size = size
	ino.Meta.ModTime = now
	ino.Meta.CTime = now
	fs.be.Published()
	return nil
}

// resize commits rec, an op setting the file's size, and publishes its
// effect on the mappings: a shrink releases every mapping past size, and
// a mid-page size first copies the boundary page with its tail zeroed
// (bytes past size must read zero if the file grows back), whose remap
// records join rec. Caller holds Mu and publishes the size afterwards.
func (fs *FS) resize(ino *Inode, num uint64, size int64, now time.Duration, rec fsrec.Op) error {
	fs.ops.Reset()
	var cut edge
	if size < ino.Meta.Size && size%PageSize != 0 {
		zTo := min(size/PageSize*PageSize+PageSize, ino.Meta.Size)
		var err error
		if cut, err = fs.copyEdge(ino, num, size, zTo, size, now); err != nil {
			return err
		}
	}
	fs.ops.Add(rec)
	if err := fs.be.Commit(fs.ops.Recs); err != nil {
		fs.dropEdge(cut)
		return err
	}
	if size < ino.Meta.Size {
		fs.remap(ino, num, cut)
		fs.dropTail(ino, num, size)
	}
	return nil
}

// punch implements PunchHole. A punch that reaches EOF in mid-page frees
// the ragged last page whole, since its bytes past EOF read zero already;
// its record covers the rounded range, so replay frees the same page.
// Caller holds Mu.
func (fs *FS) punch(ino *Inode, num uint64, off, n int64) error {
	fs.Clk.Advance(fs.Costs.MetaOp)
	end := min(off+n, ino.Meta.Size)
	if end <= off {
		return nil
	}
	if end == ino.Meta.Size {
		end = (end + PageSize - 1) / PageSize * PageSize
	}
	now := fs.Clk.Now()
	// Ragged edges are rewritten copy-on-write (see copyEdge) so the old
	// bytes stay intact until the punch transaction commits.
	fs.ops.Reset()
	firstWhole := (off + PageSize - 1) / PageSize * PageSize
	lastWhole := end / PageSize * PageSize
	var tail edge
	head, err := fs.copyEdge(ino, num, off, min(firstWhole, end), ino.Meta.Size, now)
	if err == nil && lastWhole >= firstWhole {
		tail, err = fs.copyEdge(ino, num, lastWhole, end, ino.Meta.Size, now)
	}
	if err == nil {
		fs.ops.Add(fsrec.Op{Type: fsrec.OpPunch, Ino: num, Off: off, N: end - off, MTime: now})
		err = fs.be.Commit(fs.ops.Recs)
	}
	if err != nil {
		fs.dropEdge(head)
		fs.dropEdge(tail)
		return err
	}
	fs.remap(ino, num, head)
	fs.remap(ino, num, tail)
	fs.freeRange(ino, num, off, end-off)
	ino.Meta.ModTime = now
	ino.Meta.CTime = now
	fs.be.Published()
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

// copyEdge stages making the mapped bytes of [zFrom, zTo) — a range
// inside one file page — read zero without touching the live block in
// place: the backend writes the page's image, zeros over the cleared
// range, to a fresh block, and the records remapping the page onto it
// join fs.ops. Zeroing in place is not crash-safe: the zeros could reach
// the device before the truncate or punch record commits. remap
// publishes the copy, dropEdge discards it. Caller holds Mu.
func (fs *FS) copyEdge(ino *Inode, num uint64, zFrom, zTo, size int64, now time.Duration) (edge, error) {
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
	devOff, err := fs.be.CopyEdge(ino, num, pageStart, zFrom, zTo)
	if err != nil {
		return edge{}, err
	}
	delta := devOff - pageStart
	for _, seg := range segs {
		if !seg.Hole {
			fs.ops.Add(fsrec.Op{Type: fsrec.OpExtent, Ino: num, Off: seg.Off, Delta: delta,
				N: seg.Len, Size: size, MTime: now})
		}
	}
	return edge{segs: segs, pageStart: pageStart, devOff: devOff}, nil
}

// dropEdge discards a copyEdge whose op was dropped: its block is
// discarded and freed.
func (fs *FS) dropEdge(e edge) {
	if e.segs != nil {
		fs.Dev.Discard(e.devOff, PageSize)
		fs.be.Free(e.devOff, PageSize)
	}
}

// remap publishes a committed copyEdge: the page's mapped runs move onto
// the copy and their old blocks are released. Caller holds Mu.
func (fs *FS) remap(ino *Inode, num uint64, e edge) {
	if e.segs == nil {
		return
	}
	fs.be.Remapped(num, e.pageStart)
	delta := e.devOff - e.pageStart
	for _, seg := range e.segs {
		if !seg.Hole {
			fs.be.Release(seg.Off+seg.Val, seg.Len)
			ino.Ext.Insert(seg.Off, seg.Len, delta)
		}
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
