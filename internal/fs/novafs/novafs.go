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
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"muxfs/internal/alloc"
	"muxfs/internal/device"
	"muxfs/internal/extent"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fsbase"
	"muxfs/internal/journal"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// PageSize is the file-to-PM mapping granule.
const PageSize = 4096

// Costs are the software-path costs novafs charges to the virtual clock,
// separate from device media costs. Calibrated so a cache-line read through
// NOVA lands near the paper's native-NOVA latency (see EXPERIMENTS.md).
type Costs struct {
	ReadOp  time.Duration // per read call: inode lookup + extent walk
	WriteOp time.Duration // per write call: log entry construction etc.
	PerPage time.Duration // per 4 KiB page touched: mapping check/alloc
	MetaOp  time.Duration // namespace operations
}

// DefaultCosts models NOVA's short, lock-light code paths.
func DefaultCosts() Costs {
	return Costs{
		ReadOp:  305 * time.Nanosecond,
		WriteOp: 350 * time.Nanosecond,
		PerPage: 30 * time.Nanosecond,
		MetaOp:  600 * time.Nanosecond,
	}
}

type inode struct {
	meta fsbase.Meta
	// ext maps file offsets to PM offsets. The stored value is the delta
	// (pmOff - fileOff), constant across a physically contiguous run, so
	// extent splits and merges stay correct.
	ext extent.Tree[int64]
}

// FS is a mounted novafs instance. Safe for concurrent use.
type FS struct {
	name  string
	dev   *device.Device
	clk   *simclock.Clock
	costs Costs

	mu         sync.Mutex
	ns         *fsbase.Namespace
	inodes     map[uint64]*inode
	pages      *alloc.Bitmap // data pages in [dataStart, capacity)
	log        *journal.Dual
	recovering bool // replay must not touch device data (pages may have been reused)

	// Scratch reused by readLocked/writeLocked under mu, so the data path
	// allocates no per-op slices.
	segs []extent.Segment[int64]
	runs []newRun
	recs []journal.Record

	dataStart int64
}

// newRun is a run of pages a write mapped, coalesced for its log record.
type newRun struct{ foff, delta, length int64 }

var _ vfs.FileSystem = (*FS)(nil)
var _ vfs.CrashRecoverer = (*FS)(nil)
var _ vfs.Profiled = (*FS)(nil)

// New mounts a fresh novafs on dev (which must be byte-addressable). A
// sixteenth of the device, at least 1 MiB, becomes the metadata log.
func New(name string, dev *device.Device, costs Costs) (*FS, error) {
	if !dev.Profile().ByteAddressable {
		return nil, fmt.Errorf("novafs: device %s is not byte-addressable", dev.Profile().Name)
	}
	logSize := dev.Capacity() / 16
	if logSize < 1<<20 {
		logSize = 1 << 20
	}
	if logSize > dev.Capacity()/2 {
		return nil, fmt.Errorf("novafs: device %s too small", dev.Profile().Name)
	}
	log, err := journal.NewDual(dev, 0, logSize)
	if err != nil {
		return nil, fmt.Errorf("novafs: %w", err)
	}
	fs := &FS{
		name:      name,
		dev:       dev,
		clk:       dev.Clock(),
		costs:     costs,
		dataStart: logSize,
		log:       log,
	}
	fs.resetState()
	return fs, nil
}

func (fs *FS) resetState() {
	fs.ns = fsbase.NewNamespace()
	fs.inodes = make(map[uint64]*inode)
	fs.pages = alloc.NewBitmap((fs.dev.Capacity() - fs.dataStart) / PageSize)
}

// Name identifies the instance.
func (fs *FS) Name() string { return fs.name }

// DeviceName returns the backing device's name.
func (fs *FS) DeviceName() string { return fs.dev.Profile().Name }

// Device exposes the backing device (benchmarks inspect its stats).
func (fs *FS) Device() *device.Device { return fs.dev }

// ReadCostHint estimates the cost of an n-byte read.
func (fs *FS) ReadCostHint(n int64) time.Duration {
	p := fs.dev.Profile()
	return fs.costs.ReadOp + p.ReadLatency + time.Duration(n*int64(time.Second)/p.ReadBandwidth)
}

// WriteCostHint estimates the cost of an n-byte write.
func (fs *FS) WriteCostHint(n int64) time.Duration {
	p := fs.dev.Profile()
	return fs.costs.WriteOp + p.WriteLatency + time.Duration(n*int64(time.Second)/p.WriteBandwidth)
}

func (fs *FS) now() time.Duration { return fs.clk.Now() }

// pmOff converts a data page number to a device offset.
func (fs *FS) pmOff(page int64) int64 { return fs.dataStart + page*PageSize }

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
	ino := &inode{meta: fsbase.Meta{Mode: 0o644, ModTime: now, ATime: now, CTime: now}}
	fs.inodes[node.Ino] = ino
	if err := fs.logCommit(fsrec.Op{Type: fsrec.OpCreate, Ino: node.Ino, Path: path, Mode: 0o644}.Record()); err != nil {
		// Roll back the namespace insert; the file never existed durably.
		fs.ns.Remove(path)
		delete(fs.inodes, node.Ino)
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

// Remove deletes a file or empty directory and frees its pages.
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
		fs.dropTail(ino, 0)
		delete(fs.inodes, node.Ino)
	}
	if err := fs.logCommit(fsrec.Op{Type: fsrec.OpRemove, Path: path}.Record()); err != nil {
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
	if err := fs.logCommit(fsrec.Op{Type: fsrec.OpRename, Path: oldPath, Path2: newPath}.Record()); err != nil {
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
	if err := fs.logCommit(fsrec.Op{Type: fsrec.OpMkdir, Ino: node.Ino, Path: path, Mode: 0o755}.Record()); err != nil {
		fs.ns.Remove(path)
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
	return fs.statNode(path, node), nil
}

func (fs *FS) statNode(path string, node *fsbase.Node) vfs.FileInfo {
	if node.IsDir() {
		return vfs.FileInfo{Path: path, Mode: node.Mode}
	}
	ino := fs.inodes[node.Ino]
	fi := ino.meta.Info(path)
	fi.Blocks = ino.ext.MappedBytes()
	return fi
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
		var err error
		recs, err = fs.shrinkExtents(ino, node.Ino, *attr.Size, fs.now())
		if err != nil {
			return vfs.Errf("setattr", fs.name, path, err)
		}
	}
	if !ino.meta.Apply(attr, fs.now()) {
		return nil
	}
	if attr.Mode != nil {
		node.Mode = ino.meta.Mode
	}
	recs = append(recs, recSetAttr(node.Ino, &ino.meta))
	if err := fs.logCommit(recs...); err != nil {
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
	total := fs.pages.Blocks() * PageSize
	used := fs.pages.Used() * PageSize
	return vfs.StatFS{
		Capacity:  total,
		Used:      used,
		Available: total - used,
		Files:     fs.ns.FileCount(),
	}, nil
}

// Sync is a near no-op: novafs persists data and log records synchronously
// (NOVA's CLFLUSH-on-write model), so there is no dirty state to flush.
func (fs *FS) Sync() error {
	fs.clk.Advance(fs.costs.MetaOp)
	return nil
}

// Crash simulates power loss on the backing device.
func (fs *FS) Crash() { fs.dev.Crash() }

// Recover rebuilds all in-memory state from the persisted log.
func (fs *FS) Recover() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.resetState()
	fs.recovering = true
	_, err := fs.log.Replay(fs.applyRecord)
	fs.recovering = false
	if err != nil {
		return fmt.Errorf("novafs %s: recover: %w", fs.name, err)
	}
	fs.scrubFreePages()
	return nil
}

// CheckConsistency cross-checks the extent maps against the page allocator:
// every mapped PM page must be marked used by exactly one file mapping, and
// every used page must be referenced by some mapping — no double-referenced
// and no leaked pages. The crash sweep runs it after every remount.
func (fs *FS) CheckConsistency() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	type ival struct{ off, end int64 }
	var ivals []ival
	referenced := make(map[int64]bool)
	for inoNum, ino := range fs.inodes {
		var err error
		ino.ext.Walk(func(off, n int64, delta int64) bool {
			pm := off + delta
			if pm < fs.dataStart || pm+n > fs.dev.Capacity() {
				err = fmt.Errorf("novafs %s: ino %d maps [%d,%d) outside the data region",
					fs.name, inoNum, pm, pm+n)
				return false
			}
			ivals = append(ivals, ival{pm, pm + n})
			for b := pm / PageSize * PageSize; b < pm+n; b += PageSize {
				referenced[(b-fs.dataStart)/PageSize] = true
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	sort.Slice(ivals, func(i, j int) bool { return ivals[i].off < ivals[j].off })
	for i := 1; i < len(ivals); i++ {
		if ivals[i].off < ivals[i-1].end {
			return fmt.Errorf("novafs %s: PM bytes [%d,%d) double-referenced",
				fs.name, ivals[i].off, ivals[i-1].end)
		}
	}
	for pg := range referenced {
		if !fs.pages.IsUsed(pg) {
			return fmt.Errorf("novafs %s: page %d mapped but not allocated", fs.name, pg)
		}
	}
	for pg := int64(0); pg < fs.pages.Blocks(); pg++ {
		if fs.pages.IsUsed(pg) && !referenced[pg] {
			return fmt.Errorf("novafs %s: page %d allocated but unreferenced (leak)", fs.name, pg)
		}
	}
	return nil
}

// scrubFreePages zeroes every unallocated data page so stale contents of
// files deleted before the crash cannot leak into partially written fresh
// allocations. Caller holds fs.mu.
func (fs *FS) scrubFreePages() {
	for pg := int64(0); pg < fs.pages.Blocks(); pg++ {
		if !fs.pages.IsUsed(pg) {
			fs.dev.Discard(fs.pmOff(pg), PageSize)
		}
	}
}

// freeRange releases whole pages fully inside [off, off+n) and unmaps them.
// Partial edge pages keep their mapping; their bytes are zeroed by callers
// that need zero semantics. Caller holds fs.mu.
func (fs *FS) freeRange(ino *inode, off, n int64) {
	if n <= 0 {
		return
	}
	start := (off + PageSize - 1) / PageSize * PageSize // first whole page
	end := (off + n) / PageSize * PageSize              // end of last whole page
	for _, seg := range ino.ext.Segments(start, end-start) {
		if seg.Hole {
			continue
		}
		pmStart := seg.Off + seg.Val
		for b := pmStart; b < pmStart+seg.Len; b += PageSize {
			fs.pages.FreeBlock((b - fs.dataStart) / PageSize)
		}
		// During replay the device already holds the final data; a freed
		// page may have been reallocated to a newer file, so discarding
		// here would destroy it. Free pages are scrubbed after replay.
		if !fs.recovering {
			fs.dev.Discard(pmStart, seg.Len)
		}
	}
	ino.ext.Delete(start, end-start)
}

// dropTail unmaps and frees every page whose bytes all lie at or past
// newSize, including the partial page at the old EOF (which freeRange's
// whole-page rounding would keep mapped with stale contents). The page
// containing newSize itself survives when newSize is mid-page; shrink
// callers rewrite it copy-on-write. Caller holds fs.mu.
func (fs *FS) dropTail(ino *inode, newSize int64) {
	_, hi := ino.ext.Bounds()
	end := (hi + PageSize - 1) / PageSize * PageSize
	if end > newSize {
		fs.freeRange(ino, newSize, end-newSize)
	}
}

// logCommit writes records as one committed transaction. Every caller has
// already applied the records' effect to in-memory state, so when the log
// is full the compaction snapshot holds the op and is its commit: the
// records are not appended again, which would make replay apply them twice.
func (fs *FS) logCommit(recs ...journal.Record) error {
	err := fs.log.Commit(recs)
	if errors.Is(err, journal.ErrFull) {
		return fs.compact()
	}
	return err
}

// compact rewrites the log as a snapshot of current state (NOVA's log GC).
// The dual journal makes it crash-atomic: the snapshot commits into the
// spare half before the superblock flips, so no crash point loses the log.
// Caller holds fs.mu.
func (fs *FS) compact() error {
	err := fs.log.Compact(func(tx *journal.Tx) {
		fs.ns.WalkAll(func(path string, node *fsbase.Node) {
			if node.IsDir() {
				tx.Append(fsrec.Op{Type: fsrec.OpMkdir, Ino: node.Ino, Path: path, Mode: node.Mode}.Record())
				return
			}
			ino := fs.inodes[node.Ino]
			tx.Append(fsrec.Op{Type: fsrec.OpCreate, Ino: node.Ino, Path: path, Mode: ino.meta.Mode}.Record())
			tx.Append(recSetAttr(node.Ino, &ino.meta))
			ino.ext.Walk(func(off, n int64, delta int64) bool {
				tx.Append(fsrec.Op{Type: fsrec.OpExtent, Ino: node.Ino, Off: off, Delta: delta, N: n,
					Size: ino.meta.Size, MTime: ino.meta.ModTime}.Record())
				return true
			})
		})
	})
	if err != nil {
		return fmt.Errorf("novafs %s: log compaction: %w", fs.name, err)
	}
	return nil
}

// readLocked serves ReadAt under fs.mu.
func (fs *FS) readLocked(ino *inode, p []byte, off int64) (int, error) {
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
	pagesTouched := (off+n-1)/PageSize - off/PageSize + 1
	fs.clk.Advance(time.Duration(pagesTouched) * fs.costs.PerPage)
	fs.segs = ino.ext.AppendSegments(fs.segs[:0], off, n)
	for _, seg := range fs.segs {
		dst := p[seg.Off-off : seg.Off-off+seg.Len]
		if seg.Hole {
			for i := range dst {
				dst[i] = 0
			}
			continue
		}
		if _, err := fs.dev.ReadAt(dst, seg.Off+seg.Val); err != nil {
			return 0, err
		}
	}
	ino.meta.ATime = fs.now()
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// writeLocked serves WriteAt under fs.mu: allocate missing pages, write in
// place, persist (DAX + CLFLUSH model), then log new mappings.
func (fs *FS) writeLocked(ino *inode, inoNum uint64, p []byte, off int64) (int, error) {
	fs.clk.Advance(fs.costs.WriteOp)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	n := int64(len(p))
	firstPage := off / PageSize
	lastPage := (off + n - 1) / PageSize
	fs.clk.Advance(time.Duration(lastPage-firstPage+1) * fs.costs.PerPage)

	// Ensure every touched file page is mapped; remember new runs to log.
	newRuns := fs.runs[:0]
	for pg := firstPage; pg <= lastPage; pg++ {
		foff := pg * PageSize
		if _, _, ok := ino.ext.Lookup(foff); ok {
			continue
		}
		blk, err := fs.pages.Alloc()
		if err != nil {
			// Roll back pages allocated for this write.
			for _, r := range newRuns {
				fs.pages.FreeBlock((r.foff + r.delta - fs.dataStart) / PageSize)
				ino.ext.Delete(r.foff, r.length)
			}
			return 0, vfs.ErrNoSpace
		}
		delta := fs.pmOff(blk) - foff
		ino.ext.Insert(foff, PageSize, delta)
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
	fs.segs = ino.ext.AppendSegments(fs.segs[:0], off, n)
	for _, seg := range fs.segs {
		if seg.Hole {
			return 0, fmt.Errorf("novafs %s: unmapped page after allocation at %d", fs.name, seg.Off)
		}
		src := p[seg.Off-off : seg.Off-off+seg.Len]
		pm := seg.Off + seg.Val
		if _, err := fs.dev.WriteAt(src, pm); err != nil {
			return 0, err
		}
		if err := fs.dev.Persist(pm, seg.Len); err != nil {
			return 0, err
		}
	}

	now := fs.now()
	if off+n > ino.meta.Size {
		ino.meta.Size = off + n
	}
	ino.meta.ModTime = now

	// One committed transaction covers the new mappings and the size/mtime.
	recs := fs.recs[:0]
	for _, r := range newRuns {
		recs = append(recs, fsrec.Op{Type: fsrec.OpExtent, Ino: inoNum, Off: r.foff, Delta: r.delta,
			N: r.length, Size: ino.meta.Size, MTime: now}.Record())
	}
	if len(recs) == 0 {
		recs = append(recs, fsrec.Op{Type: fsrec.OpSizeTime, Ino: inoNum, Size: ino.meta.Size, MTime: now}.Record())
	}
	fs.recs = recs
	if err := fs.logCommit(recs...); err != nil {
		return 0, err
	}
	return int(n), nil
}
