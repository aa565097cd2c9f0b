// Package strata implements the comparison baseline of the paper's §3: a
// Strata-like monolithic tiered file system (Kwon et al., SOSP '17) that
// manages PM, SSD, and HDD devices directly — talking to "device drivers,
// not file systems".
//
// The design properties the paper measures against are reproduced
// faithfully, including the unflattering ones:
//
//   - Log-then-digest writes: every write, regardless of its final tier,
//     first lands in an operation log on persistent memory and is later
//     digested to final blocks — write amplification that §3.1 identifies
//     as the source of Strata's PM throughput loss.
//   - One global extent tree under one coarse lock; digestion and migration
//     hold it while updating per-block state, stalling unrelated access.
//   - Static tier routing: only PM→SSD and PM→HDD data movement paths are
//     wired (Figure 3a). SSD→HDD demotion and all promotions return
//     ErrUnsupportedPath; adding a path means hand-matching the threading
//     model and block sizes of the device pair, which is exactly the
//     extensibility cost the paper's Mux design eliminates.
//   - No DRAM page cache (Strata reads from the PM log / final blocks).
package strata

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"muxfs/internal/alloc"
	"muxfs/internal/device"
	"muxfs/internal/extent"
	"muxfs/internal/fsbase"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// PageSize is the block granule.
const PageSize = 4096

// logFrac is the share of PM dedicated to the operation log: 1/logFrac.
const logFrac = 4

// ErrUnsupportedPath reports a tier pair Strata has no wired data path for.
var ErrUnsupportedPath = errors.New("strata: migration path not supported (N/S)")

// Costs models Strata's software paths. Defaults are calibrated against the
// paper's measured ratios (see EXPERIMENTS.md).
type Costs struct {
	ReadOp       time.Duration // per read: tree lookup under the global lock
	WriteOp      time.Duration // per write: log append bookkeeping
	PerPage      time.Duration // per page touched
	MetaOp       time.Duration
	DigestPerOp  time.Duration // per digested log entry: tree update + lock
	LockPerBlock time.Duration // extent-tree lock hold per migrated block
	// MigrateIOSize is the fixed transfer unit of the hand-wired migration
	// paths. Each wired path bakes in one block size (the "manually
	// matching ... block size" cost of adding paths, §3.1), so migration
	// cannot batch the way Mux's writeback-driven path does.
	MigrateIOSize int64
	// WriteAmp multiplies digest-write bytes per target class, modeling
	// Strata's per-block metadata writes riding along with data.
	WriteAmpPM  float64
	WriteAmpSSD float64
	WriteAmpHDD float64
}

// DefaultCosts returns the calibrated Strata cost model.
func DefaultCosts() Costs {
	return Costs{
		ReadOp:        600 * time.Nanosecond,
		WriteOp:       450 * time.Nanosecond,
		PerPage:       60 * time.Nanosecond,
		MetaOp:        900 * time.Nanosecond,
		DigestPerOp:   400 * time.Nanosecond,
		LockPerBlock:  250 * time.Nanosecond,
		MigrateIOSize: 2 * PageSize,
		WriteAmpPM:    1.05,
		WriteAmpSSD:   1.15,
		WriteAmpHDD:   1.25,
	}
}

// loc is the extent-tree value: which device holds the run and at what
// delta. InLog marks data still residing in the PM operation log.
type loc struct {
	Class device.Class
	Delta int64
	InLog bool
}

type inode struct {
	meta fsbase.Meta
	ext  extent.Tree[loc]
	path string // current path, for placement callbacks
}

// logEntry tracks one un-digested write in the PM operation log.
type logEntry struct {
	ino     uint64
	fileOff int64
	n       int64
	logOff  int64 // device offset of the data in the log region
}

// Placement decides the final tier for digested data. The benchmark harness
// pins it per experiment; the default waterfalls PM→SSD→HDD by free space.
type Placement func(path string, ino uint64, off, n int64) device.Class

// FS is a Strata instance over a PM + SSD + HDD hierarchy.
type FS struct {
	name  string
	clk   *simclock.Clock
	costs Costs

	// The single coarse lock guarding the global extent tree, namespace,
	// allocators, and log — the monolithic design's bottleneck.
	mu sync.Mutex

	devs   map[device.Class]*device.Device
	allocs map[device.Class]*alloc.Bitmap

	ns     *fsbase.Namespace[*inode]
	inodes map[uint64]*inode

	// PM operation log: pages come from the PM allocator; logBytes tracks
	// un-digested bytes against logBudget.
	logBudget  int64
	logBytes   int64
	logEntries []logEntry

	place           Placement
	digestThreshold float64 // digest when log use crosses this fraction
}

var _ vfs.FileSystem = (*FS)(nil)

// Config assembles a Strata instance.
type Config struct {
	Name  string
	PM    *device.Device
	SSD   *device.Device
	HDD   *device.Device
	Costs Costs
	// Placement decides digest targets (default: waterfall by free space).
	Placement Placement
}

// New mounts a Strata instance.
func New(cfg Config) (*FS, error) {
	if cfg.PM == nil || cfg.SSD == nil || cfg.HDD == nil {
		return nil, errors.New("strata: needs PM, SSD, and HDD devices")
	}
	if !cfg.PM.Profile().ByteAddressable {
		return nil, fmt.Errorf("strata: log device %s is not byte-addressable", cfg.PM.Profile().Name)
	}
	fs := &FS{
		name:            cfg.Name,
		clk:             cfg.PM.Clock(),
		costs:           cfg.Costs,
		devs:            map[device.Class]*device.Device{device.PM: cfg.PM, device.SSD: cfg.SSD, device.HDD: cfg.HDD},
		ns:              fsbase.NewNamespace[*inode](),
		inodes:          map[uint64]*inode{},
		logBudget:       cfg.PM.Capacity() / logFrac / PageSize * PageSize,
		place:           cfg.Placement,
		digestThreshold: 0.75,
	}
	fs.allocs = map[device.Class]*alloc.Bitmap{
		device.PM:  alloc.NewBitmap(cfg.PM.Capacity() / PageSize),
		device.SSD: alloc.NewBitmap(cfg.SSD.Capacity() / PageSize),
		device.HDD: alloc.NewBitmap(cfg.HDD.Capacity() / PageSize),
	}
	if fs.place == nil {
		fs.place = fs.waterfallPlacement
	}
	return fs, nil
}

// waterfallPlacement keeps data on the fastest tier with free space.
func (fs *FS) waterfallPlacement(string, uint64, int64, int64) device.Class {
	for _, cls := range []device.Class{device.PM, device.SSD, device.HDD} {
		if fs.allocs[cls].Free() > 0 {
			return cls
		}
	}
	return device.HDD
}

// Name identifies the instance.
func (fs *FS) Name() string { return fs.name }

// Device exposes a tier's device for benchmark inspection.
func (fs *FS) Device(cls device.Class) *device.Device { return fs.devs[cls] }

func (fs *FS) now() time.Duration { return fs.clk.Now() }

// Create makes and opens a new regular file.
func (fs *FS) Create(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	now := fs.now()
	e, err := fs.ns.CreateFile(path, 0o644, 0, func(uint64) (*inode, error) {
		return &inode{meta: fsbase.Meta{Mode: 0o644, ModTime: now, ATime: now, CTime: now}, path: path}, nil
	})
	if err != nil {
		return nil, vfs.Errf("create", fs.name, path, err)
	}
	fs.inodes[e.Ino] = e.File
	return &file{fs: fs, path: path, ino: e.Ino}, nil
}

// Open opens an existing regular file.
func (fs *FS) Open(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	e, err := fs.ns.Lookup(path)
	if err != nil {
		return nil, vfs.Errf("open", fs.name, path, err)
	}
	if e.IsDir() {
		return nil, vfs.Errf("open", fs.name, path, vfs.ErrIsDir)
	}
	return &file{fs: fs, path: path, ino: e.Ino}, nil
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(path string) error {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	e, err := fs.ns.Remove(path, nil)
	if err != nil {
		return vfs.Errf("remove", fs.name, path, err)
	}
	if ino := e.File; ino != nil {
		fs.freeRange(ino, 0, ino.meta.Size)
		delete(fs.inodes, e.Ino)
	}
	return nil
}

// Rename moves a file or directory. Every file it moves, the renamed
// file or each one under the renamed directory, takes its new path, so
// digest placement sees where the file lives now.
func (fs *FS) Rename(oldPath, newPath string) error {
	oldPath, newPath = vfs.CleanPath(oldPath), vfs.CleanPath(newPath)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	_, moved, err := fs.ns.Rename(oldPath, newPath, nil)
	if err != nil {
		return vfs.Errf("rename", fs.name, oldPath, err)
	}
	for _, mv := range moved {
		mv.File.path = mv.Path
	}
	return nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string) error {
	path = vfs.CleanPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.clk.Advance(fs.costs.MetaOp)
	if _, err := fs.ns.Mkdir(path, 0o755, nil); err != nil {
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
	e, err := fs.ns.Lookup(path)
	if err != nil {
		return vfs.FileInfo{}, vfs.Errf("stat", fs.name, path, err)
	}
	if e.IsDir() {
		return vfs.FileInfo{Path: path, Mode: e.Mode}, nil
	}
	ino := e.File
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
	e, err := fs.ns.Lookup(path)
	if err != nil {
		return vfs.Errf("setattr", fs.name, path, err)
	}
	if e.IsDir() {
		return vfs.Errf("setattr", fs.name, path, vfs.ErrIsDir)
	}
	ino := e.File
	if attr.Size != nil && *attr.Size < ino.meta.Size {
		fs.freeRange(ino, *attr.Size, ino.meta.Size-*attr.Size)
	}
	if ino.meta.Apply(attr, fs.now()) && attr.Mode != nil {
		fs.ns.SetFileMode(path, ino.meta.Mode)
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

// Statfs aggregates capacity across all three tiers; log pages count as PM
// usage immediately.
func (fs *FS) Statfs() (vfs.StatFS, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out vfs.StatFS
	for _, a := range fs.allocs {
		out.Capacity += a.Blocks() * PageSize
		out.Used += a.Used() * PageSize
	}
	out.Available = out.Capacity - out.Used
	out.Files = fs.ns.FileCount()
	return out, nil
}

// Sync digests the log and persists all tiers.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.digestLocked(); err != nil {
		return vfs.Errf("sync", fs.name, "/", err)
	}
	for _, d := range fs.devs {
		d.PersistAll()
	}
	return nil
}

// TierUsage reports allocated bytes per tier (benchmark inspection).
func (fs *FS) TierUsage() map[device.Class]int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[device.Class]int64, len(fs.allocs))
	for cls, a := range fs.allocs {
		out[cls] = a.Used() * PageSize
	}
	return out
}

// freeRange releases whole pages inside [off, off+n), log-resident or
// final. Caller holds fs.mu.
func (fs *FS) freeRange(ino *inode, off, n int64) {
	if n <= 0 {
		return
	}
	start := (off + PageSize - 1) / PageSize * PageSize
	end := (off + n) / PageSize * PageSize
	fs.freePages(ino, start, end-start)
}

// freePages releases the pages backing every mapped whole-page segment of
// the page-aligned range [off, off+n) and unmaps it. Caller holds fs.mu.
func (fs *FS) freePages(ino *inode, off, n int64) {
	if n <= 0 {
		return
	}
	for _, seg := range ino.ext.Segments(off, n) {
		if seg.Hole {
			continue
		}
		cls := seg.Val.Class
		devOff := seg.Off + seg.Val.Delta
		for b := devOff; b < devOff+seg.Len; b += PageSize {
			fs.allocs[cls].FreeBlock(b / PageSize)
		}
		fs.devs[cls].Discard(devOff, seg.Len)
	}
	ino.ext.Delete(off, n)
}

// readLocked reads [off, off+len(p)) resolving each segment to its device
// (log or final blocks). Caller holds fs.mu.
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
	pages := (off+n-1)/PageSize - off/PageSize + 1
	fs.clk.Advance(time.Duration(pages) * fs.costs.PerPage)
	for _, seg := range ino.ext.Segments(off, n) {
		dst := p[seg.Off-off : seg.Off-off+seg.Len]
		if seg.Hole {
			for i := range dst {
				dst[i] = 0
			}
			continue
		}
		dev := fs.devs[seg.Val.Class]
		if seg.Val.InLog {
			dev = fs.devs[device.PM]
		}
		if _, err := dev.ReadAt(dst, seg.Off+seg.Val.Delta); err != nil {
			return 0, err
		}
	}
	ino.meta.ATime = fs.now()
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}
