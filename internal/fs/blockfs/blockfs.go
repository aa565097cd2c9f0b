// Package blockfs is the shared engine behind the two journaled block file
// systems, xfslite (XFS-like, extent-allocated) and extlite (Ext4-like,
// block-mapped). The engine is the fsbase.Backend under the shared
// metadata layer (namespace, inodes, journal replay and compaction): it
// provides the page cache, ordered data flushing, group commit of the
// metadata journal, and deferred block frees; each flavor plugs in its
// space-management strategy (Placer) and its software-path cost model.
package blockfs

import (
	"fmt"

	"muxfs/internal/device"
	"muxfs/internal/extent"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fsbase"
	"muxfs/internal/journal"
	"muxfs/internal/pagecache"
	"muxfs/internal/vfs"
)

// PageSize is the file-to-device mapping granule.
const PageSize = fsbase.PageSize

// Run is a contiguous device-space allocation.
type Run struct{ DevOff, Len int64 }

// Placer is the space-management strategy: xfslite uses a first-fit extent
// allocator (few large runs), extlite a block bitmap (page-at-a-time with a
// next-fit goal). All lengths are multiples of PageSize.
type Placer interface {
	// Alloc obtains up to n bytes; short grants are allowed (callers loop).
	Alloc(n int64) (Run, error)
	// Free releases a previously allocated run.
	Free(devOff, n int64)
	// MarkUsed reserves a run during recovery replay.
	MarkUsed(devOff, n int64)
	// TotalBytes and UsedBytes report capacity accounting.
	TotalBytes() int64
	UsedBytes() int64
}

// Costs models the software path charged to the virtual clock, separate
// from device media costs. extlite's indirect block-map traversal makes its
// ReadOp an order of magnitude slower than xfslite's extent lookup — the
// knob behind the per-FS differences in experiment E3.
type Costs = fsbase.Costs

// Config assembles a blockfs flavor.
type Config struct {
	Name        string
	Costs       Costs
	JournalFrac int64 // journal gets Capacity/JournalFrac bytes (min 1 MiB)
	GroupCommit int   // pending records that force a journal commit
	CachePages  int   // page cache capacity
	// NewPlacer builds the space manager for the data region [0, size).
	// Returned offsets are region-relative; the engine rebases them.
	NewPlacer func(size int64) Placer
}

// FS is a mounted blockfs instance. Safe for concurrent use. The embedded
// fsbase.FS holds the namespace, inodes, metadata journal and handles; FS
// is its Backend.
type FS struct {
	fsbase.FS
	cfg     Config
	placer  Placer
	pending fsrec.Batch // uncommitted metadata records (group commit)
	// pendingFrees holds device runs unmapped by uncommitted operations
	// (absolute offsets). They return to the placer only after the journal
	// transaction freeing them commits: released earlier, the next write
	// could reuse and durably overwrite blocks that still-committed
	// metadata references, corrupting synced files if the commit never
	// lands.
	pendingFrees []Run
	cache        *pagecache.Cache
	// Writeback scratch reused across flushCache calls: the sorted dirty
	// keys, and the keys and cached pages of the run being merged.
	dirty   []pagecache.Key
	runKeys []pagecache.Key
	run     [][]byte
	// scratch is a page image the read and write paths build under Mu;
	// segs and newOps are the write path's hole walk and its new runs.
	scratch []byte
	segs    []extent.Segment[int64]
	newOps  []fsrec.Op
}

var _ vfs.FileSystem = (*FS)(nil)
var _ vfs.CrashRecoverer = (*FS)(nil)
var _ vfs.Profiled = (*FS)(nil)
var _ fsbase.Backend = (*FS)(nil)

// New mounts a fresh file system on dev with the given flavor config.
func New(dev *device.Device, cfg Config) (*FS, error) {
	if cfg.NewPlacer == nil {
		return nil, fmt.Errorf("blockfs: config %q lacks a placer", cfg.Name)
	}
	if cfg.JournalFrac <= 0 {
		cfg.JournalFrac = 16
	}
	if cfg.GroupCommit <= 0 {
		cfg.GroupCommit = 256
	}
	if cfg.CachePages <= 0 {
		cfg.CachePages = int(device.DefaultDRAMCapacity / PageSize)
	}
	fs := &FS{
		cfg: cfg,
		// Page cache hit cost: a DRAM-class access.
		cache:   pagecache.New(cfg.CachePages, dev.Clock(), device.DRAMProfile("cache").ReadLatency),
		scratch: make([]byte, PageSize),
	}
	if err := fs.Mount(cfg.Name, dev, cfg.JournalFrac, cfg.Costs, fs); err != nil {
		return nil, fmt.Errorf("blockfs: %w", err)
	}
	return fs, nil
}

// Reset starts an empty placer, nothing queued, and an empty cache.
func (fs *FS) Reset() {
	fs.placer = fs.cfg.NewPlacer(fs.Dev.Capacity() - fs.DataStart)
	fs.pending.Reset()
	fs.pendingFrees = fs.pendingFrees[:0]
	fs.cache.InvalidateAll()
}

// CacheStats exposes page cache counters for benchmark inspection.
func (fs *FS) CacheStats() pagecache.Stats { return fs.cache.Stats() }

// Commit queues recs, their payloads copied, for the next group commit
// (see Published), or Sync. The records are taken either way: a group
// commit that fails keeps its batch queued, and the next Sync retries it
// and reports the error, as a failed background commit fails no write
// call. Caller holds Mu.
func (fs *FS) Commit(recs []journal.Record) error {
	for _, r := range recs {
		fs.pending.AddRecord(r)
	}
	return nil
}

// Published runs the group commit once GroupCommit records are queued.
// Caller holds Mu.
func (fs *FS) Published() {
	if len(fs.pending.Recs) >= fs.cfg.GroupCommit {
		_ = fs.flushPending() // on failure the batch stays queued for Sync
	}
}

// Sync writes back all dirty pages, commits all pending metadata and
// persists the device.
func (fs *FS) Sync() error {
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	if err := fs.flush(0, true); err != nil {
		return vfs.Errf("sync", fs.Name(), "/", err)
	}
	return nil
}

// SyncFile makes one file durable: ordered data flush plus journal commit
// (fsync semantics; the whole pending batch commits, like a JBD2
// transaction carrying this file's records).
func (fs *FS) SyncFile(num uint64) error { return fs.flush(num, false) }

// flush writes back the dirty pages of file num (or of all files), commits
// the pending batch and persists the device. Caller holds Mu.
func (fs *FS) flush(num uint64, all bool) error {
	if err := fs.flushCache(num, all); err != nil {
		return err
	}
	if err := fs.flushPending(); err != nil {
		return err
	}
	fs.Dev.PersistAll()
	return nil
}

// Crash simulates power loss: un-persisted device state and the entire DRAM
// page cache vanish. The cache empties first, under Mu, so no read can
// serve a clean page off the reverted device.
func (fs *FS) Crash() {
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.cache.InvalidateAll()
	fs.Dev.Crash()
}

// Free returns a run to the placer at once.
func (fs *FS) Free(devOff, n int64) { fs.placer.Free(devOff-fs.DataStart, n) }

// Release defers a live op's unmapped run until the transaction freeing it
// commits (see pendingFrees).
func (fs *FS) Release(devOff, n int64) {
	fs.pendingFrees = append(fs.pendingFrees, Run{DevOff: devOff, Len: n})
}

// MarkUsed reserves a replayed mapping's run in the placer.
func (fs *FS) MarkUsed(devOff, n int64) { fs.placer.MarkUsed(devOff-fs.DataStart, n) }

// Unmapped drops the cached pages of an unmapped range.
func (fs *FS) Unmapped(num uint64, off, n int64) { fs.cache.InvalidateRange(num, off, n) }

// Remapped marks a copied edge page clean: the new block holds its image.
func (fs *FS) Remapped(num uint64, pageStart int64) {
	fs.cache.MarkClean(pagecacheKey(num, pageStart/PageSize))
}

// pendingBytes sums the runs awaiting their freeing transaction's commit.
func (fs *FS) pendingBytes() int64 {
	var n int64
	for _, r := range fs.pendingFrees {
		n += r.Len
	}
	return n
}

// Space reports the placer's capacity and use; blocks awaiting their
// freeing transaction's commit are logically free.
func (fs *FS) Space() (total, used int64) {
	return fs.placer.TotalBytes(), fs.placer.UsedBytes() - fs.pendingBytes()
}

// CheckSpace checks that the placer's used bytes are exactly the
// referenced pages plus the frees still pending commit: no leaked and no
// double-counted blocks.
func (fs *FS) CheckSpace(referenced map[int64]bool) error {
	pending := fs.pendingBytes()
	if got, want := fs.placer.UsedBytes(), int64(len(referenced))*PageSize; got != want+pending {
		return fmt.Errorf("allocator reports %d bytes used, mappings reference %d (+%d pending free) — leaked or double-counted blocks",
			got, want, pending)
	}
	return nil
}

// devOff returns the device offset cached page k maps to; false for a
// removed file or a hole. Caller holds Mu.
func (fs *FS) devOff(k pagecache.Key) (int64, bool) {
	ino, ok := fs.Inodes[k.File]
	if !ok {
		return 0, false
	}
	v, _, mapped := ino.Ext.Lookup(k.Page * PageSize)
	return k.Page*PageSize + v, mapped
}

// evict writes back the dirty page a cache Put chose as its victim, then
// drops it. If the write fails the page stays cached and dirty, so the
// data is not lost and a later Sync or eviction retries it. Caller holds
// Mu.
func (fs *FS) evict(ev pagecache.Evicted) error {
	if dev, ok := fs.devOff(ev.Key); ok {
		if _, err := fs.Dev.WriteAt(ev.Data, dev); err != nil {
			return err
		}
	}
	fs.cache.Evict(ev.Key)
	return nil
}

// pageImage copies page pg's current bytes into buf: the dirty cache
// copy, else the device bytes at its mapping (free when the page is
// resident clean, a read on a miss), else zeros for a hole. Caller holds
// Mu.
func (fs *FS) pageImage(ino *fsbase.Inode, num uint64, pg int64, buf []byte) error {
	data, resident := fs.cache.Peek(pagecacheKey(num, pg))
	if data != nil {
		copy(buf, data)
		return nil
	}
	if resident {
		return fs.peekClean(ino, pg, 0, buf)
	}
	v, _, mapped := ino.Ext.Lookup(pg * PageSize)
	if !mapped {
		clear(buf)
		return nil
	}
	_, err := fs.Dev.ReadAt(buf, pg*PageSize+v)
	return err
}

// peekClean copies bytes [pgOff, pgOff+len(dst)) of page pg, resident
// clean in the cache, off the device at the page's mapping (zeros for a
// hole). The device holds the only copy of a clean page, so this is the
// DRAM copy of a cache hit and costs nothing here. Caller holds Mu.
func (fs *FS) peekClean(ino *fsbase.Inode, pg, pgOff int64, dst []byte) error {
	v, _, mapped := ino.Ext.Lookup(pg * PageSize)
	if !mapped {
		clear(dst)
		return nil
	}
	return fs.Dev.Peek(dst, pg*PageSize+v+pgOff)
}

// maxRun bounds a merged writeback request (a typical max I/O size).
const maxRun = 4 << 20

// flushCache writes back dirty pages — of one file, or all — in sorted
// order, coalescing device-contiguous pages into large single writes. This
// models the real page-cache writeback path (elevator sorting + request
// merging) that gives the native file systems their "device-friendly"
// batched I/O: one op-latency charge per merged run instead of per block.
// A run is handed to the device as the list of its cached pages, so
// nothing is copied into a merge buffer; the key and page lists (fs.dirty,
// fs.runKeys, fs.run) are reused across calls. A run's pages turn clean
// only once its write has succeeded: a failed run stays dirty for the
// retry. Caller holds Mu.
func (fs *FS) flushCache(file uint64, all bool) error {
	fs.dirty = fs.cache.AppendDirtyPages(fs.dirty[:0], file, all)
	var runDev, runLen int64 // device offset and length of the run

	flushRun := func() error {
		if runLen == 0 {
			return nil
		}
		_, err := fs.Dev.WriteVecAt(fs.run, runDev)
		if err == nil {
			for _, k := range fs.runKeys {
				fs.cache.MarkClean(k)
			}
		}
		clear(fs.run) // keep no cache pages reachable between calls
		fs.run, fs.runKeys, runLen = fs.run[:0], fs.runKeys[:0], 0
		return err
	}

	for _, k := range fs.dirty {
		data, _ := fs.cache.Peek(k)
		if data == nil {
			continue
		}
		dev, ok := fs.devOff(k)
		if !ok {
			fs.cache.MarkClean(k) // removed or unmapped: nothing to write
			continue
		}
		if runLen > 0 && (runDev+runLen != dev || runLen+PageSize > maxRun) {
			if err := flushRun(); err != nil {
				return err
			}
		}
		if runLen == 0 {
			runDev = dev
		}
		fs.run = append(fs.run, data)
		fs.runKeys = append(fs.runKeys, k)
		runLen += int64(len(data))
	}
	return flushRun()
}

// flushPending commits buffered metadata. Ordered mode: dirty data writes
// back and persists before the journal commit, so committed metadata never
// references data the device does not hold. Caller holds Mu.
func (fs *FS) flushPending() error {
	if len(fs.pending.Recs) == 0 {
		return nil
	}
	if err := fs.flushCache(0, true); err != nil {
		return err
	}
	fs.Dev.PersistAll() // ordered: data first
	if err := fs.CommitLog(fs.pending.Recs, true); err != nil {
		return err
	}
	fs.pending.Reset()
	// The batch is durable; blocks it unmapped are now safe to reuse.
	for _, r := range fs.pendingFrees {
		fs.Free(r.DevOff, r.Len)
		fs.Dev.Discard(r.DevOff, r.Len)
	}
	fs.pendingFrees = fs.pendingFrees[:0]
	return nil
}

// allocSpace obtains a run from the placer, forcing the pending batch to
// commit first when space is exhausted: blocks freed by uncommitted
// operations become reusable only once their transaction is durable
// (JBD2's retry-after-commit on ENOSPC). Caller holds Mu.
func (fs *FS) allocSpace(n int64) (Run, error) {
	run, err := fs.placer.Alloc(n)
	if err != nil && len(fs.pendingFrees) > 0 {
		if ferr := fs.flushPending(); ferr != nil {
			return Run{}, ferr
		}
		run, err = fs.placer.Alloc(n)
	}
	return run, err
}

// CopyEdge writes a ragged edge page's image, zeroed over [zFrom, zTo),
// to a fresh block. The write is volatile: the ordered flush persists it
// before the remap commits, so the copy is complete whenever the remap is
// durable. Caller holds Mu.
func (fs *FS) CopyEdge(ino *fsbase.Inode, num uint64, pageStart, zFrom, zTo int64) (int64, error) {
	buf := fs.scratch
	if err := fs.pageImage(ino, num, pageStart/PageSize, buf); err != nil {
		return 0, err
	}
	clear(buf[zFrom-pageStart : zTo-pageStart])
	run, err := fs.allocSpace(PageSize)
	if err != nil || run.Len < PageSize {
		if err == nil {
			fs.placer.Free(run.DevOff, run.Len)
		}
		return 0, vfs.ErrNoSpace
	}
	devOff := fs.DataStart + run.DevOff
	if _, err := fs.Dev.WriteAt(buf, devOff); err != nil {
		fs.placer.Free(run.DevOff, PageSize)
		return 0, err
	}
	return devOff, nil
}

// Read serves a read through the page cache. Caller holds Mu.
func (fs *FS) Read(ino *fsbase.Inode, inoNum uint64, p []byte, off int64) error {
	n := int64(len(p))
	pos := off
	for pos < off+n {
		pg := pos / PageSize
		pgOff := pos % PageSize
		chunk := PageSize - pgOff
		if rem := off + n - pos; chunk > rem {
			chunk = rem
		}
		fs.Clk.Advance(fs.Costs.PerPage)
		dst := p[pos-off : pos-off+chunk]
		key := pagecache.Key{File: inoNum, Page: pg}
		if data, ok := fs.cache.Get(key); ok {
			if data != nil {
				copy(dst, data[pgOff:pgOff+chunk])
			} else if err := fs.peekClean(ino, pg, pgOff, dst); err != nil {
				return err
			}
			pos += chunk
			continue
		}
		// Miss: fetch the whole page (hole pages read as zeros without
		// device I/O) and enter it in the cache clean. Inserting may evict
		// a dirty page, which must be written back, not dropped.
		v, _, mapped := ino.Ext.Lookup(pg * PageSize)
		if !mapped {
			clear(dst)
			pos += chunk
			continue
		}
		pageBuf := dst
		if chunk < PageSize {
			pageBuf = fs.scratch
		}
		if _, err := fs.Dev.ReadAt(pageBuf, pg*PageSize+v); err != nil {
			return err
		}
		if ev, mustWrite := fs.cache.Put(key, nil, false); mustWrite {
			if err := fs.evict(ev); err != nil {
				return err
			}
		}
		copy(dst, pageBuf[pgOff:pgOff+chunk])
		pos += chunk
	}
	return nil
}

// Write serves a write: allocate backing for holes, write the data
// into cached pages, queue metadata records. Caller holds Mu.
func (fs *FS) Write(ino *fsbase.Inode, inoNum uint64, p []byte, off int64) (int, error) {
	n := int64(len(p))
	// Map every hole in the page-aligned cover of [off, off+n).
	alignedOff := off / PageSize * PageSize
	alignedEnd := (off + n + PageSize - 1) / PageSize * PageSize
	newOps := fs.newOps[:0]
	fs.segs = ino.Ext.AppendSegments(fs.segs[:0], alignedOff, alignedEnd-alignedOff)
	for _, seg := range fs.segs {
		if !seg.Hole {
			continue
		}
		remaining := seg.Len
		fileOff := seg.Off
		for remaining > 0 {
			run, err := fs.allocSpace(remaining)
			if err != nil {
				fs.rollbackNewRuns(ino, newOps)
				return 0, vfs.ErrNoSpace
			}
			devOff := fs.DataStart + run.DevOff
			delta := devOff - fileOff
			ino.Ext.Insert(fileOff, run.Len, delta)
			newOps = append(newOps, fsrec.Op{
				Type: fsrec.OpExtent, Ino: inoNum, Off: fileOff, Delta: delta, N: run.Len,
			})
			fileOff += run.Len
			remaining -= run.Len
		}
	}

	if err := fs.cachePages(ino, inoNum, p, off); err != nil {
		// Undo the hole fills: drop the pages this write cached over them
		// and whatever an eviction already wrote into their blocks, so a
		// retry allocates and journals them afresh.
		for _, op := range newOps {
			fs.cache.InvalidateRange(inoNum, op.Off, op.N)
			fs.Dev.Discard(op.Off+op.Delta, op.N)
		}
		fs.rollbackNewRuns(ino, newOps)
		return 0, err
	}

	now := fs.Clk.Now()
	if off+n > ino.Meta.Size {
		ino.Meta.Size = off + n
	}
	ino.Meta.ModTime = now

	for _, op := range newOps {
		op.Size = ino.Meta.Size
		op.MTime = now
		fs.pending.Add(op)
	}
	fs.newOps = newOps
	fs.pending.Add(fsrec.Op{Type: fsrec.OpSizeTime, Ino: inoNum, Size: ino.Meta.Size, MTime: now})
	fs.Published()
	return int(n), nil
}

// cachePages writes p at off through the page cache: the data lands in DRAM
// pages now and reaches the device at eviction or fsync, in sorted order.
// Every page of the range is mapped. Caller holds Mu.
func (fs *FS) cachePages(ino *fsbase.Inode, inoNum uint64, p []byte, off int64) error {
	end := off + int64(len(p))
	for pgStart := off / PageSize * PageSize; pgStart < end; pgStart += PageSize {
		lo, hi := max(off, pgStart), min(end, pgStart+PageSize)
		src := p[lo-off : hi-off]
		key := pagecache.Key{File: inoNum, Page: pgStart / PageSize}
		data, resident := fs.cache.Peek(key)
		if data != nil {
			copy(data[lo-pgStart:], src)
			fs.Clk.Advance(fs.Costs.PerPage) // DRAM copy path
			continue
		}
		// A clean hit or a miss: build the full page image, filling a
		// partial write from the page's mapping.
		img := src
		if len(src) < PageSize {
			img = fs.scratch
			if err := fs.pageImage(ino, inoNum, pgStart/PageSize, img); err != nil {
				return err
			}
			copy(img[lo-pgStart:], src)
		}
		if resident {
			// No buffer to update in place: the image becomes the page's
			// dirty copy at the DRAM path's cost, not Put's.
			fs.cache.MarkDirty(key, img)
			fs.Clk.Advance(fs.Costs.PerPage)
			continue
		}
		if ev, mustWrite := fs.cache.Put(key, img, true); mustWrite {
			if err := fs.evict(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// rollbackNewRuns undoes partial allocations of a failed write.
func (fs *FS) rollbackNewRuns(ino *fsbase.Inode, ops []fsrec.Op) {
	for _, op := range ops {
		fs.Free(op.Off+op.Delta, op.N)
		ino.Ext.Delete(op.Off, op.N)
	}
}
