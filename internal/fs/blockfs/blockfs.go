// Package blockfs is the shared engine behind the two journaled block file
// systems, xfslite (XFS-like, extent-allocated) and extlite (Ext4-like,
// block-mapped). The engine provides the namespace, page cache, write-ahead
// metadata journal with group commit, ordered data flushing, and crash
// recovery; each flavor plugs in its space-management strategy (Placer) and
// its software-path cost model.
package blockfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/extent"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fsbase"
	"muxfs/internal/journal"
	"muxfs/internal/pagecache"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// PageSize is the file-to-device mapping granule.
const PageSize = 4096

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
type Costs struct {
	ReadOp  time.Duration // per read call (index traversal)
	WriteOp time.Duration // per write call
	PerPage time.Duration // per 4 KiB page touched
	MetaOp  time.Duration // namespace ops
}

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

type inode struct {
	meta fsbase.Meta
	// ext maps file offsets to device offsets, delta-encoded
	// (value = devOff - fileOff) so splits and merges stay exact.
	ext extent.Tree[int64]
}

// FS is a mounted blockfs instance. Safe for concurrent use.
type FS struct {
	name  string
	dev   *device.Device
	clk   *simclock.Clock
	costs Costs
	cfg   Config

	mu      sync.Mutex
	ns      *fsbase.Namespace
	inodes  map[uint64]*inode
	placer  Placer
	jnl     *journal.Dual
	pending []journal.Record // uncommitted metadata records (group commit)
	// pendingFrees holds device runs unmapped by uncommitted operations
	// (absolute offsets). They return to the placer only after the journal
	// transaction freeing them commits: released earlier, the next write
	// could reuse and durably overwrite blocks that still-committed
	// metadata references, corrupting synced files if the commit never
	// lands.
	pendingFrees []Run
	cache        *pagecache.Cache
	recovering   bool // replay must not touch device data (pages may have been reused)
	// Writeback scratch reused across flushCache calls: the sorted dirty
	// keys, and the keys and cached pages of the run being merged.
	dirty   []pagecache.Key
	runKeys []pagecache.Key
	run     [][]byte
	// scratch is a page image the read and write paths build under fs.mu.
	scratch []byte

	dataStart int64
}

var _ vfs.FileSystem = (*FS)(nil)
var _ vfs.CrashRecoverer = (*FS)(nil)
var _ vfs.Profiled = (*FS)(nil)

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
	logSize := dev.Capacity() / cfg.JournalFrac
	if logSize < 1<<20 {
		logSize = 1 << 20
	}
	if logSize > dev.Capacity()/2 {
		return nil, fmt.Errorf("blockfs: device %s too small", dev.Profile().Name)
	}
	jnl, err := journal.NewDual(dev, 0, logSize)
	if err != nil {
		return nil, fmt.Errorf("blockfs: %w", err)
	}
	// Page cache hit cost: a DRAM-class access.
	dram := device.DRAMProfile("cache")
	fs := &FS{
		name:      cfg.Name,
		dev:       dev,
		clk:       dev.Clock(),
		costs:     cfg.Costs,
		cfg:       cfg,
		dataStart: logSize,
		jnl:       jnl,
		cache:     pagecache.New(cfg.CachePages, dev.Clock(), dram.ReadLatency),
		scratch:   make([]byte, PageSize),
	}
	fs.resetState()
	return fs, nil
}

func (fs *FS) resetState() {
	fs.ns = fsbase.NewNamespace()
	fs.inodes = make(map[uint64]*inode)
	fs.placer = fs.cfg.NewPlacer(fs.dev.Capacity() - fs.dataStart)
	fs.pending = nil
	fs.pendingFrees = nil
}

// Name identifies the instance.
func (fs *FS) Name() string { return fs.name }

// DeviceName returns the backing device's name.
func (fs *FS) DeviceName() string { return fs.dev.Profile().Name }

// Device exposes the backing device for benchmark inspection.
func (fs *FS) Device() *device.Device { return fs.dev }

// CacheStats exposes page cache counters for benchmark inspection.
func (fs *FS) CacheStats() pagecache.Stats { return fs.cache.Stats() }

// ReadCostHint estimates an n-byte read (assuming a device access).
func (fs *FS) ReadCostHint(n int64) time.Duration {
	p := fs.dev.Profile()
	return fs.costs.ReadOp + p.ReadLatency + time.Duration(n*int64(time.Second)/p.ReadBandwidth)
}

// WriteCostHint estimates an n-byte write.
func (fs *FS) WriteCostHint(n int64) time.Duration {
	p := fs.dev.Profile()
	return fs.costs.WriteOp + p.WriteLatency + time.Duration(n*int64(time.Second)/p.WriteBandwidth)
}

func (fs *FS) now() time.Duration { return fs.clk.Now() }

// queue buffers metadata records and group-commits when the batch is large
// enough. Caller holds fs.mu.
func (fs *FS) queue(recs ...journal.Record) error {
	fs.pending = append(fs.pending, recs...)
	if len(fs.pending) >= fs.cfg.GroupCommit {
		return fs.flushPending()
	}
	return nil
}

// devOff returns the device offset cached page k maps to; false for a
// removed file or a hole. Caller holds fs.mu.
func (fs *FS) devOff(k pagecache.Key) (int64, bool) {
	ino, ok := fs.inodes[k.File]
	if !ok {
		return 0, false
	}
	v, _, mapped := ino.ext.Lookup(k.Page * PageSize)
	return k.Page*PageSize + v, mapped
}

// evict writes back the dirty page a cache Put chose as its victim, then
// drops it. If the write fails the page stays cached and dirty, so the
// data is not lost and a later Sync or eviction retries it. Caller holds
// fs.mu.
func (fs *FS) evict(ev pagecache.Evicted) error {
	if dev, ok := fs.devOff(ev.Key); ok {
		if _, err := fs.dev.WriteAt(ev.Data, dev); err != nil {
			return err
		}
	}
	fs.cache.Evict(ev.Key)
	return nil
}

// peekClean copies bytes [pgOff, pgOff+len(dst)) of page pg, resident
// clean in the cache, off the device at the page's mapping (zeros for a
// hole). The device holds the only copy of a clean page, so this is the
// DRAM copy of a cache hit and costs nothing here. Caller holds fs.mu.
func (fs *FS) peekClean(ino *inode, pg, pgOff int64, dst []byte) error {
	v, _, mapped := ino.ext.Lookup(pg * PageSize)
	if !mapped {
		clear(dst)
		return nil
	}
	return fs.dev.Peek(dst, pg*PageSize+v+pgOff)
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
// retry. Caller holds fs.mu.
func (fs *FS) flushCache(file uint64, all bool) error {
	fs.dirty = fs.cache.AppendDirtyPages(fs.dirty[:0], file, all)
	var runDev, runLen int64 // device offset and length of the run

	flushRun := func() error {
		if runLen == 0 {
			return nil
		}
		_, err := fs.dev.WriteVecAt(fs.run, runDev)
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
// references data the device does not hold. Caller holds fs.mu.
func (fs *FS) flushPending() error {
	if len(fs.pending) == 0 {
		return nil
	}
	if err := fs.flushCache(0, true); err != nil {
		return err
	}
	fs.dev.PersistAll() // ordered: data first
	err := fs.jnl.Commit(fs.pending)
	if errors.Is(err, journal.ErrFull) {
		// Every queued op is already applied in memory, so the compaction
		// snapshot holds the batch and is its commit; appending the batch
		// again would make replay apply it twice.
		err = fs.compact()
	}
	if err != nil {
		return err
	}
	fs.pending = fs.pending[:0]
	// The batch is durable; blocks it unmapped are now safe to reuse.
	for _, r := range fs.pendingFrees {
		fs.placer.Free(r.DevOff-fs.dataStart, r.Len)
		fs.dev.Discard(r.DevOff, r.Len)
	}
	fs.pendingFrees = nil
	return nil
}

// compact rewrites the journal as a snapshot of current state. The dual
// journal makes it crash-atomic: the snapshot commits into the spare half
// before the superblock flips, so no crash point loses the log. Caller
// holds fs.mu.
func (fs *FS) compact() error {
	err := fs.jnl.Compact(func(tx *journal.Tx) {
		fs.ns.WalkAll(func(path string, node *fsbase.Node) {
			if node.IsDir() {
				tx.Append(fsrec.Op{Type: fsrec.OpMkdir, Ino: node.Ino, Path: path, Mode: node.Mode}.Record())
				return
			}
			ino := fs.inodes[node.Ino]
			tx.Append(fsrec.Op{Type: fsrec.OpCreate, Ino: node.Ino, Path: path, Mode: ino.meta.Mode}.Record())
			tx.Append(fsrec.Op{
				Type: fsrec.OpSetAttr, Ino: node.Ino,
				Size: ino.meta.Size, Mode: ino.meta.Mode,
				MTime: ino.meta.ModTime, ATime: ino.meta.ATime, CTime: ino.meta.CTime,
			}.Record())
			ino.ext.Walk(func(off, n, delta int64) bool {
				tx.Append(fsrec.Op{
					Type: fsrec.OpExtent, Ino: node.Ino, Off: off, Delta: delta, N: n,
					Size: ino.meta.Size, MTime: ino.meta.ModTime,
				}.Record())
				return true
			})
		})
	})
	if err != nil {
		return fmt.Errorf("blockfs %s: journal compaction: %w", fs.name, err)
	}
	return nil
}

// Create makes and opens a new regular file.
func (fs *FS) Create(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	node, err := fs.ns.CreateFile(path, 0o644)
	if err != nil {
		return nil, vfs.Errf("create", fs.name, path, err)
	}
	now := fs.now()
	fs.inodes[node.Ino] = &inode{meta: fsbase.Meta{Mode: 0o644, ModTime: now, ATime: now, CTime: now}}
	if err := fs.queue(fsrec.Op{Type: fsrec.OpCreate, Ino: node.Ino, Path: path, Mode: 0o644}.Record()); err != nil {
		return nil, vfs.Errf("create", fs.name, path, err)
	}
	return &file{fs: fs, path: path, ino: node.Ino}, nil
}

// Open opens an existing regular file.
func (fs *FS) Open(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	node, err := fs.ns.Lookup(path)
	if err != nil {
		return nil, vfs.Errf("open", fs.name, path, err)
	}
	if node.IsDir() {
		return nil, vfs.Errf("open", fs.name, path, vfs.ErrIsDir)
	}
	return &file{fs: fs, path: path, ino: node.Ino}, nil
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(path string) error {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	node, err := fs.ns.Remove(path)
	if err != nil {
		return vfs.Errf("remove", fs.name, path, err)
	}
	if ino, ok := fs.inodes[node.Ino]; ok {
		fs.dropTail(ino, node.Ino, 0)
		delete(fs.inodes, node.Ino)
		fs.cache.InvalidateFile(node.Ino)
	}
	if err := fs.queue(fsrec.Op{Type: fsrec.OpRemove, Path: path}.Record()); err != nil {
		return vfs.Errf("remove", fs.name, path, err)
	}
	return nil
}

// Rename moves a file or directory.
func (fs *FS) Rename(oldPath, newPath string) error {
	oldPath, newPath = vfs.CleanPath(oldPath), vfs.CleanPath(newPath)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	if _, err := fs.ns.Rename(oldPath, newPath); err != nil {
		return vfs.Errf("rename", fs.name, oldPath, err)
	}
	if err := fs.queue(fsrec.Op{Type: fsrec.OpRename, Path: oldPath, Path2: newPath}.Record()); err != nil {
		return vfs.Errf("rename", fs.name, oldPath, err)
	}
	return nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string) error {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	node, err := fs.ns.Mkdir(path, 0o755)
	if err != nil {
		return vfs.Errf("mkdir", fs.name, path, err)
	}
	if err := fs.queue(fsrec.Op{Type: fsrec.OpMkdir, Ino: node.Ino, Path: path, Mode: node.Mode}.Record()); err != nil {
		return vfs.Errf("mkdir", fs.name, path, err)
	}
	return nil
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	ents, err := fs.ns.ReadDir(vfs.CleanPath(path))
	if err != nil {
		return nil, vfs.Errf("readdir", fs.name, path, err)
	}
	return ents, nil
}

// Stat returns metadata for a path.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	node, err := fs.ns.Lookup(path)
	if err != nil {
		return vfs.FileInfo{}, vfs.Errf("stat", fs.name, path, err)
	}
	if node.IsDir() {
		return vfs.FileInfo{Path: path, Mode: node.Mode}, nil
	}
	ino := fs.inodes[node.Ino]
	fi := ino.meta.Info(path)
	fi.Blocks = ino.ext.MappedBytes()
	return fi, nil
}

// SetAttr applies a partial metadata update.
func (fs *FS) SetAttr(path string, attr vfs.SetAttr) error {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	node, err := fs.ns.Lookup(path)
	if err != nil {
		return vfs.Errf("setattr", fs.name, path, err)
	}
	if node.IsDir() {
		return vfs.Errf("setattr", fs.name, path, vfs.ErrIsDir)
	}
	ino := fs.inodes[node.Ino]
	var recs []journal.Record
	if attr.Size != nil && *attr.Size < ino.meta.Size {
		ops, err := fs.shrinkExtents(ino, node.Ino, *attr.Size)
		if err != nil {
			return vfs.Errf("setattr", fs.name, path, err)
		}
		now := fs.now()
		for _, op := range ops {
			op.Size = *attr.Size
			op.MTime = now
			recs = append(recs, op.Record())
		}
	}
	if !ino.meta.Apply(attr, fs.now()) {
		return nil
	}
	if attr.Mode != nil {
		node.Mode = ino.meta.Mode
	}
	recs = append(recs, fsrec.Op{
		Type: fsrec.OpSetAttr, Ino: node.Ino,
		Size: ino.meta.Size, Mode: ino.meta.Mode,
		MTime: ino.meta.ModTime, ATime: ino.meta.ATime, CTime: ino.meta.CTime,
	}.Record())
	if err := fs.queue(recs...); err != nil {
		return vfs.Errf("setattr", fs.name, path, err)
	}
	return nil
}

// Truncate sets the file size by path.
func (fs *FS) Truncate(path string, size int64) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Truncate(size)
}

// Statfs reports capacity accounting for the data region.
func (fs *FS) Statfs() (vfs.StatFS, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	total := fs.placer.TotalBytes()
	used := fs.placer.UsedBytes()
	// Blocks awaiting their freeing transaction's commit are logically free.
	for _, r := range fs.pendingFrees {
		used -= r.Len
	}
	return vfs.StatFS{
		Capacity:  total,
		Used:      used,
		Available: total - used,
		Files:     fs.ns.FileCount(),
	}, nil
}

// Sync writes back all dirty pages, persists the device, and commits all
// pending metadata.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	if err := fs.flushCache(0, true); err != nil {
		return vfs.Errf("sync", fs.name, "/", err)
	}
	if err := fs.flushPending(); err != nil {
		return vfs.Errf("sync", fs.name, "/", err)
	}
	fs.dev.PersistAll()
	return nil
}

// Crash simulates power loss: un-persisted device state and the entire DRAM
// page cache vanish. The cache empties first, under fs.mu, so no read can
// serve a clean page off the reverted device.
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cache.InvalidateAll()
	fs.dev.Crash()
}

// Recover rebuilds in-memory state by replaying the journal.
func (fs *FS) Recover() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.resetState()
	fs.cache.InvalidateAll()
	fs.recovering = true
	_, err := fs.jnl.Replay(fs.applyRecord)
	fs.recovering = false
	if err != nil {
		return fmt.Errorf("blockfs %s: recover: %w", fs.name, err)
	}
	fs.scrubFreeSpace()
	return nil
}

// CheckConsistency cross-checks the extent maps against the space manager:
// no device byte may be referenced by two mappings, every mapping must lie
// inside the data region, and the placer's used-byte accounting must equal
// exactly the referenced pages plus any frees still pending commit — no
// leaked and no double-counted blocks. The crash sweep runs it after every
// remount.
func (fs *FS) CheckConsistency() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	type ival struct{ off, end int64 }
	var ivals []ival
	pages := make(map[int64]bool)
	for inoNum, ino := range fs.inodes {
		var werr error
		ino.ext.Walk(func(off, n, delta int64) bool {
			dev := off + delta
			if dev < fs.dataStart || dev+n > fs.dev.Capacity() {
				werr = fmt.Errorf("blockfs %s: ino %d maps [%d,%d) outside the data region",
					fs.name, inoNum, dev, dev+n)
				return false
			}
			ivals = append(ivals, ival{dev, dev + n})
			for b := dev / PageSize * PageSize; b < dev+n; b += PageSize {
				pages[b] = true
			}
			return true
		})
		if werr != nil {
			return werr
		}
	}
	sort.Slice(ivals, func(i, j int) bool { return ivals[i].off < ivals[j].off })
	for i := 1; i < len(ivals); i++ {
		if ivals[i].off < ivals[i-1].end {
			return fmt.Errorf("blockfs %s: device bytes [%d,%d) double-referenced",
				fs.name, ivals[i].off, ivals[i-1].end)
		}
	}
	var pendingBytes int64
	for _, r := range fs.pendingFrees {
		pendingBytes += r.Len
	}
	want := int64(len(pages))*PageSize + pendingBytes
	if got := fs.placer.UsedBytes(); got != want {
		return fmt.Errorf("blockfs %s: allocator reports %d bytes used, mappings reference %d (+%d pending free) — leaked or double-counted blocks",
			fs.name, got, want-pendingBytes, pendingBytes)
	}
	return nil
}

// scrubFreeSpace zeroes unallocated data space after replay so deleted
// files' stale contents cannot leak into fresh partial-page allocations.
// Caller holds fs.mu.
func (fs *FS) scrubFreeSpace() {
	// Collect the referenced device ranges and discard only the gaps
	// between them: the scrub must cost O(live extents), not O(device
	// capacity) — an early version walked every page of the device, which
	// made recovery of a near-empty HDD tier the slowest step of the whole
	// remount.
	type ival struct{ off, end int64 }
	var used []ival
	for _, ino := range fs.inodes {
		ino.ext.Walk(func(off, n, delta int64) bool {
			devOff := off + delta
			lo := devOff / PageSize * PageSize
			hi := (devOff + n + PageSize - 1) / PageSize * PageSize
			used = append(used, ival{lo, hi})
			return true
		})
	}
	sort.Slice(used, func(i, j int) bool { return used[i].off < used[j].off })
	pos := fs.dataStart
	for _, u := range used {
		if u.off > pos {
			fs.dev.Discard(pos, u.off-pos)
		}
		if u.end > pos {
			pos = u.end
		}
	}
	if c := fs.dev.Capacity(); c > pos {
		fs.dev.Discard(pos, c-pos)
	}
}

// freeRange releases whole pages inside [off, off+n): placer space, extent
// mappings, cached pages. Caller holds fs.mu.
func (fs *FS) freeRange(ino *inode, inoNum uint64, off, n int64) {
	if n <= 0 {
		return
	}
	start := (off + PageSize - 1) / PageSize * PageSize
	end := (off + n) / PageSize * PageSize
	if end <= start {
		return
	}
	for _, seg := range ino.ext.Segments(start, end-start) {
		if seg.Hole {
			continue
		}
		dev := seg.Off + seg.Val
		if fs.recovering {
			// Replay rebuilds the allocator in memory; the device already
			// holds final data and freed pages may belong to newer files,
			// so no discard (Recover scrubs free space afterwards).
			fs.placer.Free(dev-fs.dataStart, seg.Len)
		} else {
			// Deferred until the transaction freeing these blocks commits
			// (see pendingFrees).
			fs.pendingFrees = append(fs.pendingFrees, Run{DevOff: dev, Len: seg.Len})
		}
	}
	ino.ext.Delete(start, end-start)
	fs.cache.InvalidateRange(inoNum, start, end-start)
}

// allocSpace obtains a run from the placer, forcing the pending batch to
// commit first when space is exhausted: blocks freed by uncommitted
// operations become reusable only once their transaction is durable
// (JBD2's retry-after-commit on ENOSPC). Caller holds fs.mu.
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

// dropTail unmaps and frees every page whose bytes all lie at or past
// newSize, including the partial page at the old EOF (which freeRange's
// whole-page rounding would keep mapped with stale contents). The page
// containing newSize itself survives when newSize is mid-page; shrink
// callers rewrite it copy-on-write. Caller holds fs.mu.
func (fs *FS) dropTail(ino *inode, inoNum uint64, newSize int64) {
	_, hi := ino.ext.Bounds()
	end := (hi + PageSize - 1) / PageSize * PageSize
	if end > newSize {
		fs.freeRange(ino, inoNum, newSize, end-newSize)
	}
}

// shrinkExtents releases every mapping at or past newSize: whole tail pages
// are unmapped, and the new boundary page — whose bytes past newSize must
// read zero if the file grows back — is rewritten copy-on-write. The
// returned remap ops must join the shrink record's transaction (caller
// fills Size/MTime and queues them together). Caller holds fs.mu and
// updates ino.meta.Size afterwards.
func (fs *FS) shrinkExtents(ino *inode, inoNum uint64, newSize int64) ([]fsrec.Op, error) {
	var ops []fsrec.Op
	if newSize%PageSize != 0 {
		zTo := newSize/PageSize*PageSize + PageSize
		if zTo > ino.meta.Size {
			zTo = ino.meta.Size
		}
		e, err := fs.cowZeroEdge(ino, inoNum, newSize, zTo)
		if err != nil {
			return nil, err
		}
		ops = fs.remapEdge(ino, inoNum, e, nil)
	}
	fs.dropTail(ino, inoNum, newSize)
	return ops, nil
}

// edgeCopy is a ragged edge prepared by cowZeroEdge: the page's mapped
// runs and the fresh block holding its new image. segs is nil when the
// range reads zero already and nothing needs remapping.
type edgeCopy struct {
	segs      []extent.Segment[int64]
	pageStart int64
	devOff    int64
}

// cowZeroEdge makes the mapped bytes of [zFrom, zTo) — a range inside one
// file page — read zero without touching the live block in place: a fresh
// block receives the preserved bytes (zeros over the cleared range), and
// remapEdge then moves the page onto it. The in-place alternative is not
// crash-safe: the ordered pre-commit flush would make the zeros durable
// before the truncate/punch record commits, corrupting the old contents if
// the commit never lands. Until remapEdge runs nothing else has changed,
// so dropEdge undoes the copy without a trace. Caller holds fs.mu.
func (fs *FS) cowZeroEdge(ino *inode, inoNum uint64, zFrom, zTo int64) (edgeCopy, error) {
	if zTo <= zFrom {
		return edgeCopy{}, nil
	}
	pageStart := zFrom / PageSize * PageSize
	segs := ino.ext.Segments(pageStart, PageSize)
	touched := false
	for _, seg := range segs {
		if !seg.Hole && seg.Off < zTo && seg.End() > zFrom {
			touched = true
			break
		}
	}
	if !touched {
		return edgeCopy{}, nil // holes already read zero
	}
	// Page image: a dirty cache page is newest; otherwise the mapped runs
	// on the device, read for free when the page is resident clean (the
	// device holds its only copy).
	buf := fs.scratch
	clear(buf)
	cached, resident := fs.cache.Peek(pagecacheKey(inoNum, pageStart/PageSize))
	if cached != nil {
		copy(buf, cached)
	} else {
		for _, seg := range segs {
			if seg.Hole {
				continue
			}
			dst := buf[seg.Off-pageStart : seg.Off-pageStart+seg.Len]
			var err error
			if resident {
				err = fs.dev.Peek(dst, seg.Off+seg.Val)
			} else {
				_, err = fs.dev.ReadAt(dst, seg.Off+seg.Val)
			}
			if err != nil {
				return edgeCopy{}, err
			}
		}
	}
	for i := zFrom; i < zTo; i++ {
		buf[i-pageStart] = 0
	}
	run, err := fs.allocSpace(PageSize)
	if err != nil || run.Len < PageSize {
		if err == nil {
			fs.placer.Free(run.DevOff, run.Len)
		}
		return edgeCopy{}, vfs.ErrNoSpace
	}
	devOff := fs.dataStart + run.DevOff
	// Volatile write; the ordered flush persists it before the remap
	// commits, so the copy is complete whenever the remap is durable.
	if _, err := fs.dev.WriteAt(buf, devOff); err != nil {
		fs.placer.Free(run.DevOff, PageSize)
		return edgeCopy{}, err
	}
	return edgeCopy{segs: segs, pageStart: pageStart, devOff: devOff}, nil
}

// dropEdge undoes a cowZeroEdge that will not be applied: its block
// returns to the allocator, discarded.
func (fs *FS) dropEdge(e edgeCopy) {
	if e.segs != nil {
		fs.placer.Free(e.devOff-fs.dataStart, PageSize)
		fs.dev.Discard(e.devOff, PageSize)
	}
}

// remapEdge applies a cowZeroEdge: the page's runs move onto the copy,
// their old blocks join pendingFrees, and the remap ops — which must commit
// in the caller's transaction — are appended to ops. Caller holds fs.mu.
func (fs *FS) remapEdge(ino *inode, inoNum uint64, e edgeCopy, ops []fsrec.Op) []fsrec.Op {
	if e.segs == nil {
		return ops
	}
	// The new block now holds the page: a resident page turns clean.
	fs.cache.MarkClean(pagecacheKey(inoNum, e.pageStart/PageSize))
	newDelta := e.devOff - e.pageStart
	oldPages := make(map[int64]bool)
	for _, seg := range e.segs {
		if seg.Hole {
			continue
		}
		old := seg.Off + seg.Val
		for b := old / PageSize * PageSize; b < old+seg.Len; b += PageSize {
			if !oldPages[b] {
				oldPages[b] = true
				fs.pendingFrees = append(fs.pendingFrees, Run{DevOff: b, Len: PageSize})
			}
		}
		ino.ext.Insert(seg.Off, seg.Len, newDelta)
		ops = append(ops, fsrec.Op{Type: fsrec.OpExtent, Ino: inoNum, Off: seg.Off, Delta: newDelta, N: seg.Len})
	}
	return ops
}

// readLocked serves ReadAt through the page cache. Caller holds fs.mu.
func (fs *FS) readLocked(ino *inode, inoNum uint64, p []byte, off int64) (int, error) {
	fs.clk.Advance(fs.costs.ReadOp)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if off >= ino.meta.Size {
		return 0, io.EOF
	}
	n := int64(len(p))
	short := false
	if off+n > ino.meta.Size {
		n = ino.meta.Size - off
		short = true
	}

	pos := off
	for pos < off+n {
		pg := pos / PageSize
		pgOff := pos % PageSize
		chunk := PageSize - pgOff
		if rem := off + n - pos; chunk > rem {
			chunk = rem
		}
		fs.clk.Advance(fs.costs.PerPage)
		dst := p[pos-off : pos-off+chunk]
		key := pagecache.Key{File: inoNum, Page: pg}
		if data, ok := fs.cache.Get(key); ok {
			if data != nil {
				copy(dst, data[pgOff:pgOff+chunk])
			} else if err := fs.peekClean(ino, pg, pgOff, dst); err != nil {
				return 0, err
			}
			pos += chunk
			continue
		}
		// Miss: fetch the whole page (hole pages read as zeros without
		// device I/O) and enter it in the cache clean. Inserting may evict
		// a dirty page, which must be written back, not dropped.
		v, _, mapped := ino.ext.Lookup(pg * PageSize)
		if !mapped {
			clear(dst)
			pos += chunk
			continue
		}
		pageBuf := dst
		if chunk < PageSize {
			pageBuf = fs.scratch
		}
		if _, err := fs.dev.ReadAt(pageBuf, pg*PageSize+v); err != nil {
			return 0, err
		}
		if ev, mustWrite := fs.cache.Put(key, nil, false); mustWrite {
			if err := fs.evict(ev); err != nil {
				return 0, err
			}
		}
		copy(dst, pageBuf[pgOff:pgOff+chunk])
		pos += chunk
	}
	ino.meta.ATime = fs.now()
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// writeLocked serves WriteAt: allocate backing for holes, write the data
// into cached pages, queue metadata records. Caller holds fs.mu.
func (fs *FS) writeLocked(ino *inode, inoNum uint64, p []byte, off int64) (int, error) {
	fs.clk.Advance(fs.costs.WriteOp)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	n := int64(len(p))
	firstPage := off / PageSize
	lastPage := (off + n - 1) / PageSize
	fs.clk.Advance(time.Duration(lastPage-firstPage+1) * fs.costs.PerPage)

	// Map every hole in the page-aligned cover of [off, off+n).
	alignedOff := firstPage * PageSize
	alignedEnd := (lastPage + 1) * PageSize
	var newOps []fsrec.Op
	for _, seg := range ino.ext.Segments(alignedOff, alignedEnd-alignedOff) {
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
			devOff := fs.dataStart + run.DevOff
			delta := devOff - fileOff
			ino.ext.Insert(fileOff, run.Len, delta)
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
			fs.dev.Discard(op.Off+op.Delta, op.N)
		}
		fs.rollbackNewRuns(ino, newOps)
		return 0, err
	}

	now := fs.now()
	if off+n > ino.meta.Size {
		ino.meta.Size = off + n
	}
	ino.meta.ModTime = now

	recs := make([]journal.Record, 0, len(newOps)+1)
	for _, op := range newOps {
		op.Size = ino.meta.Size
		op.MTime = now
		recs = append(recs, op.Record())
	}
	recs = append(recs, fsrec.Op{Type: fsrec.OpSizeTime, Ino: inoNum, Size: ino.meta.Size, MTime: now}.Record())
	if err := fs.queue(recs...); err != nil {
		return 0, err
	}
	return int(n), nil
}

// cachePages writes p at off through the page cache: the data lands in DRAM
// pages now and reaches the device at eviction or fsync, in sorted order.
// Every page of the range is mapped. Caller holds fs.mu.
func (fs *FS) cachePages(ino *inode, inoNum uint64, p []byte, off int64) error {
	end := off + int64(len(p))
	for pgStart := off / PageSize * PageSize; pgStart < end; pgStart += PageSize {
		lo, hi := max(off, pgStart), min(end, pgStart+PageSize)
		src := p[lo-off : hi-off]
		key := pagecache.Key{File: inoNum, Page: pgStart / PageSize}
		data, resident := fs.cache.Peek(key)
		if data != nil {
			copy(data[lo-pgStart:], src)
			fs.clk.Advance(fs.costs.PerPage) // DRAM copy path
			continue
		}
		// A clean hit or a miss: build the full page image, filling a
		// partial write from the page's mapping.
		img := src
		if len(src) < PageSize {
			img = fs.scratch
			var err error
			if resident {
				err = fs.peekClean(ino, pgStart/PageSize, 0, img)
			} else if v, _, mapped := ino.ext.Lookup(pgStart); mapped {
				_, err = fs.dev.ReadAt(img, pgStart+v) // RMW fill
			} else {
				clear(img)
			}
			if err != nil {
				return err
			}
			copy(img[lo-pgStart:], src)
		}
		if resident {
			// No buffer to update in place: the image becomes the page's
			// dirty copy at the DRAM path's cost, not Put's.
			fs.cache.MarkDirty(key, img)
			fs.clk.Advance(fs.costs.PerPage)
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
func (fs *FS) rollbackNewRuns(ino *inode, ops []fsrec.Op) {
	for _, op := range ops {
		fs.placer.Free(op.Off+op.Delta-fs.dataStart, op.N)
		ino.ext.Delete(op.Off, op.N)
	}
}
