package novafs

import (
	"time"

	"muxfs/internal/extent"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/journal"
	"muxfs/internal/vfs"
)

// file is an open novafs handle.
type file struct {
	fs     *FS
	path   string
	ino    uint64
	closed bool
}

var _ vfs.File = (*file)(nil)

// node returns the inode, or an error if the handle is closed or the file
// was removed underneath it.
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

// ReadAt implements io.ReaderAt with DAX semantics: data comes straight off
// the PM device.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino, err := f.node()
	if err != nil {
		return 0, vfs.Errf("read", f.fs.name, f.path, err)
	}
	n, err := f.fs.readLocked(ino, p, off)
	if err != nil && n == 0 {
		return n, err // io.EOF or device error, unwrapped for io semantics
	}
	return n, err
}

// WriteAt writes in place and persists synchronously.
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
	return f.fs.truncateLocked(ino, f.ino, size)
}

// Sync is cheap: all novafs writes are already persisted (CLFLUSH model).
func (f *file) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, err := f.node(); err != nil {
		return vfs.Errf("sync", f.fs.name, f.path, err)
	}
	f.fs.clk.Advance(f.fs.costs.MetaOp)
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

// Extents lists allocated runs in file-offset order, merging runs that are
// adjacent in file space (physical contiguity is irrelevant to callers).
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

// PunchHole deallocates whole pages inside the range and zeroes the ragged
// edges in place.
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
	return f.fs.punchLocked(ino, f.ino, off, n)
}

// truncateLocked implements Truncate under fs.mu.
func (fs *FS) truncateLocked(ino *inode, inoNum uint64, size int64) error {
	fs.clk.Advance(fs.costs.MetaOp)
	now := fs.now()
	var recs []journal.Record
	if size < ino.meta.Size {
		var err error
		recs, err = fs.shrinkExtents(ino, inoNum, size, now)
		if err != nil {
			return err
		}
	}
	ino.meta.Size = size
	ino.meta.ModTime = now
	ino.meta.CTime = now
	recs = append(recs, fsrec.Op{Type: fsrec.OpTruncate, Ino: inoNum, Size: size, MTime: now}.Record())
	return fs.logCommit(recs...)
}

// shrinkExtents releases every mapping at or past newSize: whole tail pages
// (including the old EOF's partial page) are unmapped and freed, and the
// new boundary page — whose bytes past newSize must read zero if the file
// grows back — is rewritten copy-on-write. Zeroing it in place would
// corrupt the old contents during the crash window before the shrink record
// commits; the returned remap records must join that record's transaction.
// Caller holds fs.mu and updates ino.meta.Size afterwards.
func (fs *FS) shrinkExtents(ino *inode, inoNum uint64, newSize int64, now time.Duration) ([]journal.Record, error) {
	var recs []journal.Record
	if newSize%PageSize != 0 {
		zTo := newSize/PageSize*PageSize + PageSize
		if zTo > ino.meta.Size {
			zTo = ino.meta.Size
		}
		c, err := fs.cowZeroPage(ino, newSize, zTo)
		if err != nil {
			return nil, err
		}
		recs = fs.remapPage(ino, inoNum, c, newSize, now, recs)
	}
	fs.dropTail(ino, newSize)
	return recs, nil
}

// punchLocked implements PunchHole under fs.mu.
func (fs *FS) punchLocked(ino *inode, inoNum uint64, off, n int64) error {
	fs.clk.Advance(fs.costs.MetaOp)
	end := off + n
	if end > ino.meta.Size {
		end = ino.meta.Size
	}
	if end <= off {
		return nil
	}
	now := fs.now()
	// Ragged edges are rewritten copy-on-write (see truncateLocked) so the
	// old bytes stay intact until the punch transaction commits. Both edges
	// are copied before either is remapped: a failed second copy must leave
	// the first unapplied, or its old page would be freed with no record.
	var head, tail cowPage
	var err error
	firstWhole := (off + PageSize - 1) / PageSize * PageSize
	lastWhole := end / PageSize * PageSize
	if firstWhole > lastWhole { // range inside one page
		head, err = fs.cowZeroPage(ino, off, end)
	} else if head, err = fs.cowZeroPage(ino, off, firstWhole); err == nil {
		if tail, err = fs.cowZeroPage(ino, lastWhole, end); err != nil {
			fs.dropPage(head)
		}
	}
	if err != nil {
		return err
	}
	recs := fs.remapPage(ino, inoNum, head, ino.meta.Size, now, nil)
	recs = fs.remapPage(ino, inoNum, tail, ino.meta.Size, now, recs)
	fs.freeRange(ino, off, end-off)
	ino.meta.ModTime = now
	ino.meta.CTime = now
	recs = append(recs, fsrec.Op{Type: fsrec.OpPunch, Ino: inoNum, Off: off, N: end - off, MTime: now}.Record())
	return fs.logCommit(recs...)
}

// cowPage is a ragged edge prepared by cowZeroPage: the page's mapped runs
// and the fresh, persisted PM page holding its new image. segs is nil when
// the range reads zero already and nothing needs remapping.
type cowPage struct {
	segs      []extent.Segment[int64]
	pageStart int64
	blk       int64
}

// cowZeroPage makes the mapped bytes of [zFrom, zTo) — a range inside one
// file page — read zero without touching the live page in place: a fresh
// PM page receives the preserved bytes (zeros over the cleared range) and
// is persisted; remapPage then moves the page onto it, or dropPage undoes
// the copy. Until the caller's transaction commits, the durable state still
// maps the untouched old page, so a crash at any instant leaves either the
// complete old contents or the complete new ones. Caller holds fs.mu.
func (fs *FS) cowZeroPage(ino *inode, zFrom, zTo int64) (cowPage, error) {
	if zTo <= zFrom {
		return cowPage{}, nil
	}
	pageStart := zFrom / PageSize * PageSize
	segs := ino.ext.Segments(pageStart, PageSize)
	touched := false
	for _, seg := range segs {
		if !seg.Hole && seg.Off < zTo && seg.Off+seg.Len > zFrom {
			touched = true
			break
		}
	}
	if !touched {
		return cowPage{}, nil // holes already read zero
	}
	blk, err := fs.pages.Alloc()
	if err != nil {
		return cowPage{}, vfs.ErrNoSpace
	}
	c := cowPage{segs: segs, pageStart: pageStart, blk: blk}
	buf := make([]byte, PageSize)
	for _, seg := range segs {
		if seg.Hole {
			continue
		}
		dst := buf[seg.Off-pageStart : seg.Off-pageStart+seg.Len]
		if _, err := fs.dev.ReadAt(dst, seg.Off+seg.Val); err != nil {
			fs.dropPage(c)
			return cowPage{}, err
		}
	}
	for i := zFrom; i < zTo; i++ {
		buf[i-pageStart] = 0
	}
	pm := fs.pmOff(blk)
	if _, err := fs.dev.WriteAt(buf, pm); err != nil {
		fs.dropPage(c)
		return cowPage{}, err
	}
	if err := fs.dev.Persist(pm, PageSize); err != nil {
		fs.dropPage(c)
		return cowPage{}, err
	}
	return c, nil
}

// dropPage undoes a cowZeroPage that will not be applied: its page is
// discarded and freed.
func (fs *FS) dropPage(c cowPage) {
	if c.segs != nil {
		fs.dev.Discard(fs.pmOff(c.blk), PageSize)
		fs.pages.FreeBlock(c.blk)
	}
}

// remapPage applies a cowZeroPage: the page's mapped runs move onto the
// copy, their old pages are released (as OpExtent replay does), and the
// remap records, which must commit with the caller's record, are appended
// to recs. Caller holds fs.mu.
func (fs *FS) remapPage(ino *inode, inoNum uint64, c cowPage, logicalSize int64, now time.Duration, recs []journal.Record) []journal.Record {
	newDelta := fs.pmOff(c.blk) - c.pageStart
	for _, seg := range c.segs {
		if seg.Hole {
			continue
		}
		oldPM := seg.Off + seg.Val
		for b := oldPM / PageSize * PageSize; b < oldPM+seg.Len; b += PageSize {
			fs.pages.FreeBlock((b - fs.dataStart) / PageSize)
		}
		fs.dev.Discard(oldPM, seg.Len)
		ino.ext.Insert(seg.Off, seg.Len, newDelta)
		recs = append(recs, fsrec.Op{Type: fsrec.OpExtent, Ino: inoNum, Off: seg.Off, Delta: newDelta,
			N: seg.Len, Size: logicalSize, MTime: now}.Record())
	}
	return recs
}
