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
	segs   []extent.Segment[int64]
	staged extent.Tree[int64]
	view   extent.Tree[int64]
	ops    fsrec.Batch
}

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
func (fs *FS) Commit(recs []journal.Record) error { return fs.CommitLog(recs, false) }

// Published has nothing to do: every op committed before it published.
func (fs *FS) Published() {}

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
func (fs *FS) CopyEdge(ino *fsbase.Inode, _ uint64, pageStart, zFrom, zTo int64) (int64, error) {
	blk, err := fs.pages.Alloc()
	if err != nil {
		return 0, vfs.ErrNoSpace
	}
	pm := fs.pmOff(blk)
	buf := make([]byte, PageSize)
	if v, _, mapped := ino.Ext.Lookup(pageStart); mapped {
		_, err = fs.Dev.ReadAt(buf, pageStart+v)
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
func (fs *FS) Read(ino *fsbase.Inode, _ uint64, p []byte, off int64) error {
	n := int64(len(p))
	pagesTouched := (off+n-1)/PageSize - off/PageSize + 1
	fs.Clk.Advance(time.Duration(pagesTouched) * fs.Costs.PerPage)
	fs.segs = ino.Ext.AppendSegments(fs.segs[:0], off, n)
	for _, seg := range fs.segs {
		dst := p[seg.Off-off : seg.Off-off+seg.Len]
		if seg.Hole {
			clear(dst)
		} else if _, err := fs.Dev.ReadAt(dst, seg.Off+seg.Val); err != nil {
			return err
		}
	}
	return nil
}

// Write serves a write: stage a fresh page for every hole, write in
// place and persist (DAX + CLFLUSH model), log the new mappings with the
// size and mtime, and only then map the staged pages. A failed write
// frees what it staged; only bytes it overwrote in place remain. Caller
// holds Mu.
func (fs *FS) Write(ino *fsbase.Inode, inoNum uint64, p []byte, off int64) (int, error) {
	n := int64(len(p))
	// fs.staged maps each hole page to a fresh PM page, joining physically
	// contiguous pages into runs; fs.view is the extent map with those
	// pages in its holes, each of its runs one device request.
	var err error
	fs.staged.Clear()
	fs.view.Clear()
	lo, hi := off/PageSize*PageSize, (off+n+PageSize-1)/PageSize*PageSize
	fs.segs = ino.Ext.AppendSegments(fs.segs[:0], lo, hi-lo)
	for _, seg := range fs.segs {
		if !seg.Hole {
			fs.view.Insert(seg.Off, seg.Len, seg.Val)
		}
		for foff := seg.Off; seg.Hole && foff < seg.End() && err == nil; foff += PageSize {
			if blk, aerr := fs.pages.Alloc(); aerr != nil {
				err = vfs.ErrNoSpace
			} else {
				fs.staged.Insert(foff, PageSize, fs.pmOff(blk)-foff)
				fs.view.Insert(foff, PageSize, fs.pmOff(blk)-foff)
			}
		}
	}
	if err == nil {
		fs.segs = fs.view.AppendSegments(fs.segs[:0], off, n)
		for _, seg := range fs.segs {
			pm := seg.Off + seg.Val
			if _, err = fs.Dev.WriteAt(p[seg.Off-off:seg.End()-off], pm); err == nil {
				err = fs.Dev.Persist(pm, seg.Len)
			}
			if err != nil {
				break
			}
		}
	}
	if err == nil {
		// One committed transaction covers the new mappings and the
		// size/mtime.
		now, size := fs.Clk.Now(), max(ino.Meta.Size, off+n)
		fs.ops.Reset()
		fs.staged.Walk(func(foff, run, delta int64) bool {
			fs.ops.Add(fsrec.Op{Type: fsrec.OpExtent, Ino: inoNum, Off: foff, Delta: delta, N: run, Size: size, MTime: now})
			return true
		})
		if len(fs.ops.Recs) == 0 {
			fs.ops.Add(fsrec.Op{Type: fsrec.OpSizeTime, Ino: inoNum, Size: size, MTime: now})
		}
		if err = fs.CommitLog(fs.ops.Recs, false); err == nil {
			fs.staged.Walk(func(foff, run, delta int64) bool { ino.Ext.Insert(foff, run, delta); return true })
			ino.Meta.Size, ino.Meta.ModTime = size, now
			return int(n), nil
		}
	}
	fs.staged.Walk(func(foff, run, delta int64) bool { fs.Release(foff+delta, run); return true })
	return 0, err
}
