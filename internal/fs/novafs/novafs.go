// Package novafs implements a NOVA-like file system for byte-addressable
// persistent memory (Xu & Swanson, FAST '16), the PM tier's native file
// system in the paper's Mux prototype.
//
// The properties that matter for the paper's evaluation are reproduced:
//
//   - DAX direct access: reads and writes go straight to the PM device with
//     no DRAM page cache in front.
//   - No logging tax for data: data is written in place to allocated PM
//     pages and made durable with CLFLUSH-style persist barriers (contrast
//     with Strata, which stages all data through an operation log first —
//     the write amplification §3.1 blames for Strata's PM throughput).
//   - A persisted metadata log: every namespace/extent mutation appends a
//     committed record to an on-device log (the per-inode-log analogue),
//     replayed on recovery; the log compacts in place when full.
package novafs

import (
	"fmt"
	"io"
	"time"

	"muxfs/internal/alloc"
	"muxfs/internal/device"
	"muxfs/internal/extent"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fsbase"
	"muxfs/internal/journal"
	"muxfs/internal/vfs"
)

// PageSize is the file-to-PM mapping granule.
const PageSize = fsbase.PageSize

// Costs are the software-path costs novafs charges to the virtual clock,
// separate from device media costs. Calibrated so a cache-line read through
// NOVA lands near the paper's native-NOVA latency (see EXPERIMENTS.md).
type Costs = fsbase.Costs

// DefaultCosts models NOVA's short, lock-light code paths.
func DefaultCosts() Costs {
	return Costs{
		ReadOp:  305 * time.Nanosecond,
		WriteOp: 350 * time.Nanosecond,
		PerPage: 30 * time.Nanosecond,
		MetaOp:  600 * time.Nanosecond,
	}
}

// FS is a mounted novafs instance. Safe for concurrent use. The embedded
// fsbase.FS holds the namespace, inodes, metadata log and handles; FS is
// its Backend: DAX data path, page bitmap and synchronous commits.
type FS struct {
	fsbase.FS
	pages *alloc.Bitmap // data pages in [DataStart, capacity)

	// Scratch reused by Read/Write under Mu, so the data path allocates no
	// per-op slices.
	segs []extent.Segment[int64]
	runs []newRun
	ops  fsrec.Batch
}

// newRun is a run of pages a write mapped, coalesced for its log record.
type newRun struct{ foff, delta, length int64 }

var _ vfs.FileSystem = (*FS)(nil)
var _ vfs.CrashRecoverer = (*FS)(nil)
var _ vfs.Profiled = (*FS)(nil)
var _ fsbase.Backend = (*FS)(nil)

// New mounts a fresh novafs on dev (which must be byte-addressable). A
// sixteenth of the device, at least 1 MiB, becomes the metadata log.
func New(name string, dev *device.Device, costs Costs) (*FS, error) {
	if !dev.Profile().ByteAddressable {
		return nil, fmt.Errorf("novafs: device %s is not byte-addressable", dev.Profile().Name)
	}
	fs := &FS{}
	if err := fs.Mount(name, dev, 16, costs, fs); err != nil {
		return nil, fmt.Errorf("novafs: %w", err)
	}
	return fs, nil
}

// Reset starts an empty page bitmap.
func (fs *FS) Reset() {
	fs.pages = alloc.NewBitmap((fs.Dev.Capacity() - fs.DataStart) / PageSize)
}

// pmOff converts a data page number to a device offset, page its inverse.
func (fs *FS) pmOff(page int64) int64 { return fs.DataStart + page*PageSize }
func (fs *FS) page(pmOff int64) int64 { return (pmOff - fs.DataStart) / PageSize }

// Commit makes every op durable before it returns: the log commit is
// synchronous, like NOVA's per-inode log appends. A failed commit leaves
// nothing behind.
func (fs *FS) Commit(recs []journal.Record) error { return fs.CommitLog(recs) }

// Sync is a near no-op: novafs persists data and log records synchronously
// (NOVA's CLFLUSH-on-write model), so there is no dirty state to flush.
func (fs *FS) Sync() error {
	fs.Clk.Advance(fs.Costs.MetaOp)
	return nil
}

// SyncFile is Sync for one file: as cheap, for the same reason.
func (fs *FS) SyncFile(uint64) error { return fs.Sync() }

// Crash simulates power loss on the backing device.
func (fs *FS) Crash() { fs.Dev.Crash() }

// Free returns the pages of [devOff, devOff+n) to the bitmap.
func (fs *FS) Free(devOff, n int64) {
	for b := devOff / PageSize * PageSize; b < devOff+n; b += PageSize {
		fs.pages.FreeBlock(fs.page(b))
	}
}

// Release frees and discards unmapped pages at once: the op's log commit
// follows before it returns.
func (fs *FS) Release(devOff, n int64) {
	fs.Free(devOff, n)
	fs.Dev.Discard(devOff, n)
}

// MarkUsed marks the pages of a replayed mapping allocated.
func (fs *FS) MarkUsed(devOff, n int64) {
	for b := devOff; b < devOff+n; b += PageSize {
		fs.pages.MarkUsed(fs.page(b))
	}
}

// Unmapped and Remapped have nothing to do: novafs has no page cache.
func (fs *FS) Unmapped(uint64, int64, int64) {}
func (fs *FS) Remapped(uint64, int64)        {}

// Space reports the data pages' capacity and use.
func (fs *FS) Space() (total, used int64) {
	return fs.pages.Blocks() * PageSize, fs.pages.Used() * PageSize
}

// CheckSpace checks that exactly the referenced pages are allocated: none
// mapped but free, none allocated but unreferenced (a leak).
func (fs *FS) CheckSpace(referenced map[int64]bool) error {
	for b := range referenced {
		if !fs.pages.IsUsed(fs.page(b)) {
			return fmt.Errorf("page %d mapped but not allocated", fs.page(b))
		}
	}
	for pg := int64(0); pg < fs.pages.Blocks(); pg++ {
		if fs.pages.IsUsed(pg) && !referenced[fs.pmOff(pg)] {
			return fmt.Errorf("page %d allocated but unreferenced (leak)", pg)
		}
	}
	return nil
}

// CopyEdge copies a ragged edge page onto a fresh PM page, zeroed over
// [zFrom, zTo), and persists it before returning its offset.
func (fs *FS) CopyEdge(_ uint64, segs []extent.Segment[int64], pageStart, zFrom, zTo int64) (int64, error) {
	blk, err := fs.pages.Alloc()
	if err != nil {
		return 0, vfs.ErrNoSpace
	}
	pm := fs.pmOff(blk)
	buf := make([]byte, PageSize)
	for _, seg := range segs {
		if err == nil && !seg.Hole {
			_, err = fs.Dev.ReadAt(buf[seg.Off-pageStart:seg.End()-pageStart], seg.Off+seg.Val)
		}
	}
	clear(buf[zFrom-pageStart : zTo-pageStart])
	if err == nil {
		_, err = fs.Dev.WriteAt(buf, pm)
	}
	if err == nil {
		err = fs.Dev.Persist(pm, PageSize)
	}
	if err != nil {
		fs.Release(pm, PageSize)
		return 0, err
	}
	return pm, nil
}

// Read serves a read with DAX semantics: data comes straight off the PM
// device, with no DRAM cache in front. Caller holds Mu.
func (fs *FS) Read(ino *fsbase.Inode, _ uint64, p []byte, off int64) (int, error) {
	fs.Clk.Advance(fs.Costs.ReadOp)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if off >= ino.Meta.Size {
		return 0, io.EOF
	}
	n := int64(len(p))
	short := false
	if off+n > ino.Meta.Size {
		n = ino.Meta.Size - off
		short = true
	}
	pagesTouched := (off+n-1)/PageSize - off/PageSize + 1
	fs.Clk.Advance(time.Duration(pagesTouched) * fs.Costs.PerPage)
	fs.segs = ino.Ext.AppendSegments(fs.segs[:0], off, n)
	for _, seg := range fs.segs {
		dst := p[seg.Off-off : seg.Off-off+seg.Len]
		if seg.Hole {
			for i := range dst {
				dst[i] = 0
			}
			continue
		}
		if _, err := fs.Dev.ReadAt(dst, seg.Off+seg.Val); err != nil {
			return 0, err
		}
	}
	ino.Meta.ATime = fs.Clk.Now()
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// Write serves a write: allocate missing pages, write in place, persist
// (DAX + CLFLUSH model), then log new mappings. Caller holds Mu.
func (fs *FS) Write(ino *fsbase.Inode, inoNum uint64, p []byte, off int64) (int, error) {
	fs.Clk.Advance(fs.Costs.WriteOp)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	n := int64(len(p))
	firstPage := off / PageSize
	lastPage := (off + n - 1) / PageSize
	fs.Clk.Advance(time.Duration(lastPage-firstPage+1) * fs.Costs.PerPage)

	// Ensure every touched file page is mapped; remember new runs to log.
	newRuns := fs.runs[:0]
	for pg := firstPage; pg <= lastPage; pg++ {
		foff := pg * PageSize
		if _, _, ok := ino.Ext.Lookup(foff); ok {
			continue
		}
		blk, err := fs.pages.Alloc()
		if err != nil {
			// Roll back pages allocated for this write: every page of
			// each coalesced run.
			for _, r := range newRuns {
				fs.Free(r.foff+r.delta, r.length)
				ino.Ext.Delete(r.foff, r.length)
			}
			return 0, vfs.ErrNoSpace
		}
		delta := fs.pmOff(blk) - foff
		ino.Ext.Insert(foff, PageSize, delta)
		// Coalesce bookkeeping for the log: extend the previous run when
		// physically contiguous.
		if len(newRuns) > 0 {
			lr := &newRuns[len(newRuns)-1]
			if lr.foff+lr.length == foff && lr.delta == delta {
				lr.length += PageSize
				continue
			}
		}
		newRuns = append(newRuns, newRun{foff, delta, PageSize})
	}
	fs.runs = newRuns

	// Write the payload segment by segment and persist each PM run.
	fs.segs = ino.Ext.AppendSegments(fs.segs[:0], off, n)
	for _, seg := range fs.segs {
		if seg.Hole {
			return 0, fmt.Errorf("novafs %s: unmapped page after allocation at %d", fs.Name(), seg.Off)
		}
		src := p[seg.Off-off : seg.Off-off+seg.Len]
		pm := seg.Off + seg.Val
		if _, err := fs.Dev.WriteAt(src, pm); err != nil {
			return 0, err
		}
		if err := fs.Dev.Persist(pm, seg.Len); err != nil {
			return 0, err
		}
	}

	now := fs.Clk.Now()
	if off+n > ino.Meta.Size {
		ino.Meta.Size = off + n
	}
	ino.Meta.ModTime = now

	// One committed transaction covers the new mappings and the size/mtime.
	fs.ops.Reset()
	for _, r := range newRuns {
		fs.ops.Add(fsrec.Op{Type: fsrec.OpExtent, Ino: inoNum, Off: r.foff, Delta: r.delta,
			N: r.length, Size: ino.Meta.Size, MTime: now})
	}
	if len(fs.ops.Recs) == 0 {
		fs.ops.Add(fsrec.Op{Type: fsrec.OpSizeTime, Ino: inoNum, Size: ino.Meta.Size, MTime: now})
	}
	if err := fs.CommitLog(fs.ops.Recs); err != nil {
		return 0, err
	}
	return int(n), nil
}
