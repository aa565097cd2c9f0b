// Package fsbase is the metadata half of the native file systems: novafs
// and the blockfs engine behind xfslite and extlite. They differ in how
// they place, index, persist and cache *data* (NOVA's DAX pages against a
// page cache over a block allocator); their namespace and metadata-record
// handling is the same, and lives here once:
//
//   - the namespace (Namespace, the sharded directory table Mux and Strata
//     use too) and the inode table (Inode: Meta plus an extent map from
//     file offsets to device offsets);
//   - the path operations (Create, Open, Remove, Rename, Mkdir, ReadDir,
//     Stat, SetAttr, Truncate) and the open-file handle;
//   - the metadata journal: one fsrec replay, one compaction snapshot,
//     and the free-space scrub after replay;
//   - the skeletons of Truncate and PunchHole, whose ragged edge pages are
//     rewritten copy-on-write, and the extent-walk half of the consistency
//     check.
//
// Each file system supplies the rest through Backend: its data path, its
// space manager and its commit policy. The shared code never asks which
// file system it serves.
package fsbase

import (
	"fmt"
	"sync"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/journal"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// PageSize is the file-to-device mapping granule.
const PageSize = 4096

// Costs are the software-path costs a native file system charges to the
// virtual clock, separate from device media costs.
type Costs struct {
	ReadOp  time.Duration // per read call: inode lookup + index walk
	WriteOp time.Duration // per write call
	PerPage time.Duration // per 4 KiB page touched
	MetaOp  time.Duration // namespace operations
}

// Backend is the half of a native file system the shared layer does not
// own. FS calls it with Mu held. Device offsets are absolute; every range
// is whole pages. Every op commits, then publishes: it stages its effect
// off to the side, hands its records to Commit, and only then makes the
// effect visible and calls Published; an op whose records are not taken
// drops what it staged.
type Backend interface {
	// Commit hands the records of an op not yet visible to the journal
	// under the file system's commit policy. It must not retain recs. An
	// error means the records were not taken and never will be. It may
	// run under the namespace's shard locks (see WalkHeld).
	Commit(recs []journal.Record) error
	// Published follows an op whose records Commit took once its effect
	// is visible: a group commit runs here, so it sees only published ops.
	Published()
	// Read fills p, which lies inside the file's size, from offset off of
	// file num. Write writes p at off >= 0; FS has charged the per-call
	// and per-page costs of both.
	Read(ino *Inode, num uint64, p []byte, off int64) error
	Write(ino *Inode, num uint64, p []byte, off int64) (int, error)
	// SyncFile makes file num durable (fsync).
	SyncFile(num uint64) error
	// CopyEdge writes a fresh block holding the image of the page of file
	// num at pageStart, with [zFrom, zTo) zeroed, and returns its device
	// offset. The copy must be durable by the time the records remapping
	// the page onto it commit.
	CopyEdge(ino *Inode, num uint64, pageStart, zFrom, zTo int64) (int64, error)
	// Free returns device bytes to the space manager at once, touching no
	// device data. Replay frees what its records unmap this way.
	Free(devOff, n int64)
	// Release frees device bytes a live op unmapped: at once, or only when
	// the op's records commit, as the commit policy requires.
	Release(devOff, n int64)
	// MarkUsed reserves device bytes a replayed mapping references.
	MarkUsed(devOff, n int64)
	// Unmapped tells the backend that [off, off+n) of file num lost its
	// mapping; Remapped that the page at pageStart moved onto a fresh copy
	// of its image, which the device now holds.
	Unmapped(num uint64, off, n int64)
	Remapped(num uint64, pageStart int64)
	// Space reports the data region's capacity and the bytes in use.
	Space() (total, used int64)
	// CheckSpace checks the space manager against the device pages the
	// extent maps reference (keyed by device offset).
	CheckSpace(referenced map[int64]bool) error
	// Reset empties the backend's state for replay to rebuild.
	Reset()
}

// FS is the shared half of a mounted native file system. A file system
// embeds it and hands Mount itself as the Backend.
type FS struct {
	// Mu serializes every operation, the backend's data path included.
	Mu sync.Mutex
	// NS is the namespace, Inodes the inode table, Log the metadata
	// journal in [0, DataStart); the data region is [DataStart, capacity).
	NS        *Namespace[*Inode]
	Inodes    map[uint64]*Inode
	Log       *journal.Dual
	Dev       *device.Device
	Clk       *simclock.Clock
	Costs     Costs
	DataStart int64

	name       string
	be         Backend
	recovering bool // replaying: unmapped bytes are freed, not released
	// ops is the batch an op builds its records in, and snap the buffer a
	// compaction snapshot stages each record's payload in; both reused
	// under Mu, so metadata records cost no heap.
	ops  fsrec.Batch
	snap []byte
}

// Mount lays the shared half over dev: a metadata journal in the first
// 1/journalFrac of the device (at least 1 MiB, at most half of it), the
// data region after it, and an empty namespace.
func (fs *FS) Mount(name string, dev *device.Device, journalFrac int64, costs Costs, be Backend) error {
	logSize := max(dev.Capacity()/journalFrac, 1<<20)
	if logSize > dev.Capacity()/2 {
		return fmt.Errorf("device %s too small", dev.Profile().Name)
	}
	log, err := journal.NewDual(dev, 0, logSize)
	if err != nil {
		return err
	}
	fs.name, fs.Dev, fs.Clk, fs.Costs, fs.be = name, dev, dev.Clock(), costs, be
	fs.Log, fs.DataStart = log, logSize
	fs.reset()
	return nil
}

func (fs *FS) reset() {
	fs.NS = NewNamespace[*Inode]()
	fs.Inodes = make(map[uint64]*Inode)
	fs.be.Reset()
}

// Name identifies the instance.
func (fs *FS) Name() string { return fs.name }

// DeviceName returns the backing device's name.
func (fs *FS) DeviceName() string { return fs.Dev.Profile().Name }

// Device exposes the backing device (benchmarks inspect its stats).
func (fs *FS) Device() *device.Device { return fs.Dev }

// ReadCostHint estimates the cost of an n-byte read.
func (fs *FS) ReadCostHint(n int64) time.Duration {
	p := fs.Dev.Profile()
	return fs.Costs.ReadOp + p.ReadLatency + time.Duration(n*int64(time.Second)/p.ReadBandwidth)
}

// WriteCostHint estimates the cost of an n-byte write.
func (fs *FS) WriteCostHint(n int64) time.Duration {
	p := fs.Dev.Profile()
	return fs.Costs.WriteOp + p.WriteLatency + time.Duration(n*int64(time.Second)/p.WriteBandwidth)
}

// commit hands op's record to the backend, encoded into the reused batch.
// Caller holds Mu.
func (fs *FS) commit(op fsrec.Op) error {
	fs.ops.Reset()
	fs.ops.Add(op)
	return fs.be.Commit(fs.ops.Recs)
}

// Create makes and opens a new regular file.
func (fs *FS) Create(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	now := fs.Clk.Now()
	e, err := fs.NS.CreateFile(path, 0o644, 0, func(num uint64) (*Inode, error) {
		if err := fs.commit(fsrec.Op{Type: fsrec.OpCreate, Ino: num, Path: path, Mode: 0o644}); err != nil {
			return nil, err
		}
		return &Inode{Meta: Meta{Mode: 0o644, ModTime: now, ATime: now, CTime: now}}, nil
	})
	if err != nil {
		return nil, vfs.Errf("create", fs.name, path, err)
	}
	fs.Inodes[e.Ino] = e.File
	fs.be.Published()
	return &file{fs: fs, path: path, ino: e.Ino}, nil
}

// Open opens an existing regular file.
func (fs *FS) Open(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	e, err := fs.NS.Lookup(path)
	if err != nil {
		return nil, vfs.Errf("open", fs.name, path, err)
	}
	if e.IsDir() {
		return nil, vfs.Errf("open", fs.name, path, vfs.ErrIsDir)
	}
	return &file{fs: fs, path: path, ino: e.Ino}, nil
}

// Remove deletes a file or empty directory and releases its space.
func (fs *FS) Remove(path string) error {
	path = vfs.CleanPath(path)
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	e, err := fs.NS.Remove(path, func() error {
		return fs.commit(fsrec.Op{Type: fsrec.OpRemove, Path: path})
	})
	if err != nil {
		return vfs.Errf("remove", fs.name, path, err)
	}
	fs.dropInode(e.Ino)
	fs.be.Published()
	return nil
}

// dropInode unmaps every page of a removed file and forgets its inode.
// Caller holds Mu.
func (fs *FS) dropInode(num uint64) {
	if ino, ok := fs.Inodes[num]; ok {
		fs.dropTail(ino, num, 0)
		delete(fs.Inodes, num)
	}
}

// Rename moves a file or directory.
func (fs *FS) Rename(oldPath, newPath string) error {
	oldPath, newPath = vfs.CleanPath(oldPath), vfs.CleanPath(newPath)
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	_, _, err := fs.NS.Rename(oldPath, newPath, func() error {
		return fs.commit(fsrec.Op{Type: fsrec.OpRename, Path: oldPath, Path2: newPath})
	})
	if err != nil {
		return vfs.Errf("rename", fs.name, oldPath, err)
	}
	fs.be.Published()
	return nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string) error {
	path = vfs.CleanPath(path)
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	_, err := fs.NS.Mkdir(path, 0o755, func(num uint64) error {
		return fs.commit(fsrec.Op{Type: fsrec.OpMkdir, Ino: num, Path: path, Mode: vfs.ModeDir | 0o755})
	})
	if err != nil {
		return vfs.Errf("mkdir", fs.name, path, err)
	}
	fs.be.Published()
	return nil
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	ents, err := fs.NS.ReadDir(vfs.CleanPath(path))
	if err != nil {
		return nil, vfs.Errf("readdir", fs.name, path, err)
	}
	return ents, nil
}

// Stat returns metadata for a path.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	path = vfs.CleanPath(path)
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	e, err := fs.NS.Lookup(path)
	if err != nil {
		return vfs.FileInfo{}, vfs.Errf("stat", fs.name, path, err)
	}
	if e.IsDir() {
		return vfs.FileInfo{Path: path, Mode: e.Mode}, nil
	}
	return e.File.info(path), nil
}

// info is the inode's FileInfo under path.
func (ino *Inode) info(path string) vfs.FileInfo {
	fi := ino.Meta.Info(path)
	fi.Blocks = ino.Ext.MappedBytes()
	return fi
}

// SetAttr applies a partial metadata update.
func (fs *FS) SetAttr(path string, attr vfs.SetAttr) error {
	path = vfs.CleanPath(path)
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.Clk.Advance(fs.Costs.MetaOp)
	e, err := fs.NS.Lookup(path)
	if err != nil {
		return vfs.Errf("setattr", fs.name, path, err)
	}
	if e.IsDir() {
		return vfs.Errf("setattr", fs.name, path, vfs.ErrIsDir)
	}
	ino, m, now := e.File, e.File.Meta, fs.Clk.Now()
	if !m.Apply(attr, now) {
		return nil
	}
	if err := fs.resize(ino, e.Ino, m.Size, now, setAttrOp(e.Ino, &m)); err != nil {
		return vfs.Errf("setattr", fs.name, path, err)
	}
	ino.Meta = m
	if attr.Mode != nil {
		fs.NS.SetFileMode(path, m.Mode)
	}
	fs.be.Published()
	return nil
}

// setAttrOp is the op recording an inode's full attributes.
func setAttrOp(num uint64, m *Meta) fsrec.Op {
	return fsrec.Op{
		Type: fsrec.OpSetAttr, Ino: num,
		Size: m.Size, Mode: m.Mode, MTime: m.ModTime, ATime: m.ATime, CTime: m.CTime,
	}
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
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	total, used := fs.be.Space()
	return vfs.StatFS{
		Capacity:  total,
		Used:      used,
		Available: total - used,
		Files:     fs.NS.FileCount(),
	}, nil
}

// Recover rebuilds all in-memory state by replaying the journal, then
// scrubs the free space.
func (fs *FS) Recover() error {
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	fs.reset()
	fs.recovering = true
	_, err := fs.Log.Replay(fs.apply)
	fs.recovering = false
	if err != nil {
		return fmt.Errorf("%s: recover: %w", fs.name, err)
	}
	fs.scrub()
	return nil
}

// CheckConsistency cross-checks the namespace against the inode table and
// the extent maps against the space manager: every file entry names a
// live inode and every inode has an entry, every mapping lies inside the
// data region, no device byte is referenced by two mappings, and the
// backend's CheckSpace finds no leaked or double-counted page. The crash
// sweep runs it after every remount.
func (fs *FS) CheckConsistency() error {
	fs.Mu.Lock()
	defer fs.Mu.Unlock()
	if err := fs.checkNamespace(); err != nil {
		return fmt.Errorf("%s: %w", fs.name, err)
	}
	referenced := make(map[int64]bool)
	runs := fs.deviceRuns()
	for i, r := range runs {
		if r.off < fs.DataStart || r.end > fs.Dev.Capacity() {
			return fmt.Errorf("%s: ino %d maps [%d,%d) outside the data region", fs.name, r.num, r.off, r.end)
		}
		if i > 0 && r.off < runs[i-1].end {
			return fmt.Errorf("%s: device bytes [%d,%d) double-referenced", fs.name, r.off, runs[i-1].end)
		}
		for b := r.off; b < r.end; b += PageSize {
			referenced[b] = true
		}
	}
	if err := fs.be.CheckSpace(referenced); err != nil {
		return fmt.Errorf("%s: %w", fs.name, err)
	}
	return nil
}

// checkNamespace reports a file entry whose inode is missing from the
// inode table, and an inode no entry references. Caller holds Mu.
func (fs *FS) checkNamespace() error {
	var err error
	named := make(map[uint64]bool, len(fs.Inodes))
	fs.NS.WalkAll(func(path string, e Entry[*Inode]) {
		if e.IsDir() || err != nil {
			return
		}
		if ino, ok := fs.Inodes[e.Ino]; !ok || ino != e.File {
			err = fmt.Errorf("%s names inode %d, which the inode table lacks", path, e.Ino)
		}
		named[e.Ino] = true
	})
	if err != nil {
		return err
	}
	for num := range fs.Inodes {
		if !named[num] {
			return fmt.Errorf("inode %d has no namespace entry", num)
		}
	}
	return nil
}
