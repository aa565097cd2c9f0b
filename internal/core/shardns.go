package core

import (
	"strings"
	"sync"
	"sync/atomic"

	"muxfs/internal/vfs"
)

// The sharded namespace replaces the single global Mux.mu + directory tree:
// the metadata hot path (lookup, open, stat, readdir, create/unlink churn)
// must scale with client count, and a process-wide mutex serializes it long
// before any device is saturated (E8 measures exactly this).
//
// Layout: a flat table of directory maps — dir path → (child name → entry) —
// spread over nsShards shards keyed by a hash of the *parent directory*
// path, so every entry of one directory lives in one shard and a lookup
// touches exactly one shard lock, shared-mode. Invariant: dirs[D] is non-nil
// iff D exists and is a directory; a file entry never owns a dirs key.
//
// Lock discipline (see DESIGN.md "Concurrency & lock order"):
//
//   - Single-shard ops (Lookup, ReadDir, file create) take that shard's
//     RWMutex alone.
//   - Two-shard ops (Mkdir, Remove, file Rename) write-lock both shards in
//     ascending shard-index order, so concurrent cross-shard renames (a↔b)
//     cannot deadlock.
//   - Directory Rename and WalkAll lock all shards in ascending index order
//     (a directory move rekeys every dirs entry under the old prefix).
//   - No second shard lock is ever taken while holding one except through
//     those ordered helpers. In particular, error classification for a
//     missing parent (ErrNotDir vs ErrNotExist requires walking ancestors)
//     happens after the op's locks are released.
//
// Inode allocation and the entry count are atomics, so Statfs and create
// never contend on a shard they don't touch.

// nsShards is the shard count. 64 keeps the per-shard collision probability
// negligible for the goroutine counts E8 sweeps while staying cache-friendly.
const nsShards = 64

// nsEntry is one dentry. file is non-nil iff the entry is a regular file,
// and is set before the entry becomes visible (under the shard write lock),
// so readers never observe a file entry without its muxFile.
type nsEntry struct {
	ino  uint64
	mode vfs.FileMode
	file *muxFile
}

// nsInfo is the copied, lock-free view of an entry that lookups return.
type nsInfo struct {
	Ino  uint64
	Mode vfs.FileMode
	File *muxFile // nil for directories
}

// IsDir reports whether the entry is a directory.
func (i nsInfo) IsDir() bool { return i.Mode.IsDir() }

type nsShard struct {
	mu   sync.RWMutex
	dirs map[string]map[string]*nsEntry
}

// shardedNS is the Mux namespace. Safe for concurrent use.
type shardedNS struct {
	shard   [nsShards]nsShard
	nextIno atomic.Uint64
	count   atomic.Int64 // live files + directories, excluding root
}

const rootMode = vfs.ModeDir | 0o755

func newShardedNS() *shardedNS {
	ns := &shardedNS{}
	ns.nextIno.Store(1) // root is ino 1; NextIno hands out 2 onward
	s := ns.shardOf("/")
	s.dirs = map[string]map[string]*nsEntry{"/": {}}
	for i := range ns.shard {
		if ns.shard[i].dirs == nil {
			ns.shard[i].dirs = map[string]map[string]*nsEntry{}
		}
	}
	return ns
}

// shardIndex hashes a directory path (FNV-1a) onto a shard.
func shardIndex(dir string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(dir); i++ {
		h ^= uint64(dir[i])
		h *= 1099511628211
	}
	return int(h & (nsShards - 1))
}

func (ns *shardedNS) shardOf(dir string) *nsShard { return &ns.shard[shardIndex(dir)] }

// NextIno reserves and returns a fresh inode number.
func (ns *shardedNS) NextIno() uint64 { return ns.nextIno.Add(1) }

// BumpIno raises the inode allocator above ino (recovery replay).
func (ns *shardedNS) BumpIno(ino uint64) {
	for {
		cur := ns.nextIno.Load()
		if ino <= cur {
			return
		}
		if ns.nextIno.CompareAndSwap(cur, ino) {
			return
		}
	}
}

// FileCount returns the number of live entries (files + dirs, sans root).
func (ns *shardedNS) FileCount() int64 { return ns.count.Load() }

// lockPair write-locks the shards of two directories in ascending index
// order and returns the unlock function.
func (ns *shardedNS) lockPair(dirA, dirB string) func() {
	ia, ib := shardIndex(dirA), shardIndex(dirB)
	if ia == ib {
		s := &ns.shard[ia]
		s.mu.Lock()
		return s.mu.Unlock
	}
	if ia > ib {
		ia, ib = ib, ia
	}
	a, b := &ns.shard[ia], &ns.shard[ib]
	a.mu.Lock()
	b.mu.Lock()
	return func() { b.mu.Unlock(); a.mu.Unlock() }
}

// lockAll write-locks every shard in index order.
func (ns *shardedNS) lockAll() func() {
	for i := range ns.shard {
		ns.shard[i].mu.Lock()
	}
	return func() {
		for i := len(ns.shard) - 1; i >= 0; i-- {
			ns.shard[i].mu.Unlock()
		}
	}
}

// rlockAll read-locks every shard in index order.
func (ns *shardedNS) rlockAll() func() {
	for i := range ns.shard {
		ns.shard[i].mu.RLock()
	}
	return func() {
		for i := len(ns.shard) - 1; i >= 0; i-- {
			ns.shard[i].mu.RUnlock()
		}
	}
}

// classifyMissing reproduces the tree walker's error fidelity for a path
// whose parent directory map was absent: walking ancestors, a missing
// component is ErrNotExist and a file component is ErrNotDir. Called with NO
// shard locks held (it takes shared locks itself); the classification is
// therefore a fresh race-free-enough snapshot — if the parent appeared in
// the window, the op still reports the state it observed.
func (ns *shardedNS) classifyMissing(dir string) error {
	info, err := ns.Lookup(dir)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		return vfs.ErrNotDir
	}
	// The parent exists (it raced into existence after the op looked); the
	// op's view remains "not there yet".
	return vfs.ErrNotExist
}

// Lookup resolves path to a copied entry view.
func (ns *shardedNS) Lookup(path string) (nsInfo, error) {
	if vfs.IsRoot(path) {
		return nsInfo{Ino: 1, Mode: rootMode}, nil
	}
	dir, name := vfs.ParentPath(path)
	s := ns.shardOf(dir)
	s.mu.RLock()
	m := s.dirs[dir]
	if m == nil {
		s.mu.RUnlock()
		return nsInfo{}, ns.classifyMissing(dir)
	}
	e, ok := m[name]
	if !ok {
		s.mu.RUnlock()
		return nsInfo{}, vfs.ErrNotExist
	}
	info := nsInfo{Ino: e.ino, Mode: e.mode, File: e.file}
	s.mu.RUnlock()
	return info, nil
}

// CreateFile inserts a new regular file. mk builds the muxFile for the
// allocated inode and runs under the shard write lock, so the entry is never
// visible without its file state. ino 0 allocates fresh; a nonzero ino (replay)
// is installed verbatim and bumps the allocator.
func (ns *shardedNS) CreateFile(path string, mode vfs.FileMode, ino uint64, mk func(ino uint64) *muxFile) (*muxFile, error) {
	dir, name := vfs.ParentPath(path)
	if name == "" {
		return nil, vfs.ErrInvalid
	}
	s := ns.shardOf(dir)
	s.mu.Lock()
	m := s.dirs[dir]
	if m == nil {
		s.mu.Unlock()
		return nil, ns.classifyMissing(dir)
	}
	if _, exists := m[name]; exists {
		s.mu.Unlock()
		return nil, vfs.ErrExist
	}
	if ino == 0 {
		ino = ns.NextIno()
	} else {
		ns.BumpIno(ino)
	}
	f := mk(ino)
	m[name] = &nsEntry{ino: ino, mode: mode &^ vfs.ModeDir, file: f}
	ns.count.Add(1)
	s.mu.Unlock()
	return f, nil
}

// Mkdir inserts a new directory and returns its inode number.
func (ns *shardedNS) Mkdir(path string, mode vfs.FileMode) (uint64, error) {
	path = vfs.CleanPath(path)
	dir, name := vfs.ParentPath(path)
	if name == "" {
		return 0, vfs.ErrInvalid
	}
	unlock := ns.lockPair(dir, path)
	pm := ns.shardOf(dir).dirs[dir]
	if pm == nil {
		unlock()
		return 0, ns.classifyMissing(dir)
	}
	if _, exists := pm[name]; exists {
		unlock()
		return 0, vfs.ErrExist
	}
	ino := ns.NextIno()
	pm[name] = &nsEntry{ino: ino, mode: mode | vfs.ModeDir}
	ns.shardOf(path).dirs[path] = map[string]*nsEntry{}
	ns.count.Add(1)
	unlock()
	return ino, nil
}

// Remove deletes a file or empty directory and returns the removed entry.
func (ns *shardedNS) Remove(path string) (nsInfo, error) {
	path = vfs.CleanPath(path)
	dir, name := vfs.ParentPath(path)
	if name == "" {
		return nsInfo{}, vfs.ErrInvalid
	}
	// Both the parent's shard (entry) and the path's own shard (child dir
	// map, when path is a directory) are needed; locked in index order.
	unlock := ns.lockPair(dir, path)
	pm := ns.shardOf(dir).dirs[dir]
	if pm == nil {
		unlock()
		return nsInfo{}, ns.classifyMissing(dir)
	}
	e, ok := pm[name]
	if !ok {
		unlock()
		return nsInfo{}, vfs.ErrNotExist
	}
	if e.mode.IsDir() {
		self := ns.shardOf(path)
		if len(self.dirs[path]) > 0 {
			unlock()
			return nsInfo{}, vfs.ErrNotEmpty
		}
		delete(self.dirs, path)
	}
	delete(pm, name)
	ns.count.Add(-1)
	info := nsInfo{Ino: e.ino, Mode: e.mode, File: e.file}
	unlock()
	return info, nil
}

// movedFile is a regular file a rename moved, and its new path.
type movedFile struct {
	file *muxFile
	path string
}

// Rename moves oldPath to newPath. The destination must not exist. File
// renames lock the two parent shards in index order; directory renames lock
// every shard (the move rekeys all directory maps under the old prefix).
// It returns every regular file the rename moved — the renamed file, or
// each file under the renamed directory — with its new path.
func (ns *shardedNS) Rename(oldPath, newPath string) (nsInfo, []movedFile, error) {
	oldPath, newPath = vfs.CleanPath(oldPath), vfs.CleanPath(newPath)
	oldDir, oldName := vfs.ParentPath(oldPath)
	if oldName == "" {
		return nsInfo{}, nil, vfs.ErrInvalid
	}
	newDir, newName := vfs.ParentPath(newPath)
	if newName == "" {
		return nsInfo{}, nil, vfs.ErrInvalid
	}

	unlock := ns.lockPair(oldDir, newDir)
	om := ns.shardOf(oldDir).dirs[oldDir]
	if om == nil {
		unlock()
		return nsInfo{}, nil, ns.classifyMissing(oldDir)
	}
	e, ok := om[oldName]
	if !ok {
		unlock()
		return nsInfo{}, nil, vfs.ErrNotExist
	}
	if e.mode.IsDir() {
		// Directory move: retry from scratch under all shard locks (the
		// two-shard view cannot rekey child maps in other shards).
		unlock()
		return ns.renameDir(oldPath, newPath)
	}
	nm := ns.shardOf(newDir).dirs[newDir]
	if nm == nil {
		unlock()
		return nsInfo{}, nil, ns.classifyMissing(newDir)
	}
	if _, exists := nm[newName]; exists {
		unlock()
		return nsInfo{}, nil, vfs.ErrExist
	}
	delete(om, oldName)
	nm[newName] = e
	info := nsInfo{Ino: e.ino, Mode: e.mode, File: e.file}
	unlock()
	return info, []movedFile{{e.file, newPath}}, nil
}

// renameDir moves a directory under all shard locks, revalidating from
// scratch (the caller dropped its locks before escalating).
func (ns *shardedNS) renameDir(oldPath, newPath string) (nsInfo, []movedFile, error) {
	oldDir, oldName := vfs.ParentPath(oldPath)
	newDir, newName := vfs.ParentPath(newPath)

	unlock := ns.lockAll()
	om := ns.shardOf(oldDir).dirs[oldDir]
	if om == nil {
		unlock()
		return nsInfo{}, nil, ns.classifyMissing(oldDir)
	}
	e, ok := om[oldName]
	if !ok {
		unlock()
		return nsInfo{}, nil, vfs.ErrNotExist
	}
	if !e.mode.IsDir() {
		// Raced back into a file; redo as a plain rename.
		unlock()
		return ns.Rename(oldPath, newPath)
	}
	// Moving a directory into its own subtree would orphan it.
	if newDir == oldPath || strings.HasPrefix(newDir, oldPath+"/") {
		unlock()
		return nsInfo{}, nil, vfs.ErrInvalid
	}
	nm := ns.shardOf(newDir).dirs[newDir]
	if nm == nil {
		unlock()
		return nsInfo{}, nil, ns.classifyMissing(newDir)
	}
	if _, exists := nm[newName]; exists {
		unlock()
		return nsInfo{}, nil, vfs.ErrExist
	}
	delete(om, oldName)
	nm[newName] = e

	// Rekey every directory map under the moved prefix (including the moved
	// directory's own map): collect first, then move, so no map is mutated
	// mid-iteration.
	type rekey struct{ from, to string }
	var moves []rekey
	prefix := oldPath + "/"
	for i := range ns.shard {
		for key := range ns.shard[i].dirs {
			if key == oldPath {
				moves = append(moves, rekey{key, newPath})
			} else if strings.HasPrefix(key, prefix) {
				moves = append(moves, rekey{key, newPath + key[len(oldPath):]})
			}
		}
	}
	var moved []movedFile
	for _, mv := range moves {
		from := ns.shardOf(mv.from)
		m := from.dirs[mv.from]
		delete(from.dirs, mv.from)
		ns.shardOf(mv.to).dirs[mv.to] = m
		for name, child := range m {
			if child.file != nil {
				moved = append(moved, movedFile{child.file, childPath(mv.to, name)})
			}
		}
	}
	info := nsInfo{Ino: e.ino, Mode: e.mode}
	unlock()
	return info, moved, nil
}

// SetFileMode updates a regular file entry's cached mode bits (chmod).
func (ns *shardedNS) SetFileMode(path string, mode vfs.FileMode) {
	dir, name := vfs.ParentPath(vfs.CleanPath(path))
	s := ns.shardOf(dir)
	s.mu.Lock()
	if m := s.dirs[dir]; m != nil {
		if e, ok := m[name]; ok && !e.mode.IsDir() {
			e.mode = mode &^ vfs.ModeDir
		}
	}
	s.mu.Unlock()
}

// ReadDir lists path's entries in lexical order.
func (ns *shardedNS) ReadDir(path string) ([]vfs.DirEntry, error) {
	path = vfs.CleanPath(path)
	s := ns.shardOf(path)
	s.mu.RLock()
	m := s.dirs[path]
	if m == nil {
		s.mu.RUnlock()
		// Distinguish "no such dir" from "path is a file".
		info, err := ns.Lookup(path)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, vfs.ErrNotDir
		}
		return nil, vfs.ErrNotExist
	}
	out := make([]vfs.DirEntry, 0, len(m))
	for name, e := range m {
		out = append(out, vfs.DirEntry{Name: name, IsDir: e.mode.IsDir()})
	}
	s.mu.RUnlock()
	sortDirEntries(out)
	return out, nil
}

func sortDirEntries(ents []vfs.DirEntry) {
	// Insertion sort: directory listings here are small and mostly used in
	// tests and compaction; avoids pulling sort into the hot header.
	for i := 1; i < len(ents); i++ {
		for j := i; j > 0 && ents[j].Name < ents[j-1].Name; j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
}

// WalkAll visits every entry (directories before their children) in lexical
// order under a full shared lock — log compaction uses it to re-log the
// namespace in replayable order. file is nil for directories.
func (ns *shardedNS) WalkAll(fn func(path string, ino uint64, mode vfs.FileMode, file *muxFile)) {
	unlock := ns.rlockAll()
	defer unlock()
	var walk func(dir string)
	walk = func(dir string) {
		m := ns.shardOf(dir).dirs[dir]
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sortStrings(names)
		for _, name := range names {
			e := m[name]
			p := childPath(dir, name)
			fn(p, e.ino, e.mode, e.file)
			if e.mode.IsDir() {
				walk(p)
			}
		}
	}
	walk("/")
}

func childPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// --- inode table ---------------------------------------------------------

// inoShards shards the ino → muxFile map the same way the namespace is
// sharded, so create/unlink churn on distinct files never contends.
const inoShards = 16

type inoShard struct {
	mu sync.RWMutex
	m  map[uint64]*muxFile
}

// inoTable maps inode numbers to their muxFile state (journal replay and
// whole-set snapshots: policy rounds, fsck, BLT stats, replica repair).
type inoTable struct {
	shard [inoShards]inoShard
}

func newInoTable() *inoTable {
	t := &inoTable{}
	for i := range t.shard {
		t.shard[i].m = map[uint64]*muxFile{}
	}
	return t
}

func (t *inoTable) get(ino uint64) *muxFile {
	s := &t.shard[ino%inoShards]
	s.mu.RLock()
	f := s.m[ino]
	s.mu.RUnlock()
	return f
}

func (t *inoTable) put(ino uint64, f *muxFile) {
	s := &t.shard[ino%inoShards]
	s.mu.Lock()
	s.m[ino] = f
	s.mu.Unlock()
}

func (t *inoTable) del(ino uint64) {
	s := &t.shard[ino%inoShards]
	s.mu.Lock()
	delete(s.m, ino)
	s.mu.Unlock()
}

// snapshot returns the current file set (unordered).
func (t *inoTable) snapshot() []*muxFile { return t.appendTo(make([]*muxFile, 0, 64)) }

// appendTo appends the current file set (unordered) to out.
func (t *inoTable) appendTo(out []*muxFile) []*muxFile {
	for i := range t.shard {
		s := &t.shard[i]
		s.mu.RLock()
		for _, f := range s.m {
			out = append(out, f)
		}
		s.mu.RUnlock()
	}
	return out
}
