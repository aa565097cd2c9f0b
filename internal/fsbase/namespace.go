package fsbase

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"muxfs/internal/vfs"
)

// Namespace is the one directory table of the repo: Mux, the native file
// systems (through FS) and Strata all keep their namespace in it. Each
// owner stores its per-file state in the entry as the payload F — Mux its
// muxFile, FS and Strata their inode — so a lookup returns the file state
// along with the inode number.
//
// Layout: a flat table of directory maps — dir path → (child name → entry) —
// spread over nsShards shards keyed by a hash of the *parent directory*
// path, so every entry of one directory lives in one shard and a lookup
// touches exactly one shard lock, shared-mode. Mux serves its metadata hot
// path (lookup, open, stat, readdir, create/unlink churn) from many
// goroutines, and a single namespace mutex would serialize it long before
// any device is saturated (E8 measures exactly this). FS and Strata call in
// under their own file-system lock, so the shard locks they take are
// uncontended. Invariant: dirs[D] is non-nil iff D exists and is a
// directory; a file entry never owns a dirs key.
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
type Namespace[F any] struct {
	shard   [nsShards]nsShard[F]
	nextIno atomic.Uint64
	count   atomic.Int64 // live files + directories, excluding root
	walk    walkScratch
}

// nsShards is the shard count. 64 keeps the per-shard collision probability
// negligible for the goroutine counts E8 sweeps while staying cache-friendly.
const nsShards = 64

// Entry is one dentry, and the copied view of it that lookups return.
// File is the owner's payload, set for regular files only; a file entry is
// inserted with its payload under the shard write lock, so readers never
// observe one without it.
type Entry[F any] struct {
	Ino  uint64
	Mode vfs.FileMode
	File F // zero for directories
}

// IsDir reports whether the entry is a directory.
func (e Entry[F]) IsDir() bool { return e.Mode.IsDir() }

type nsShard[F any] struct {
	mu   sync.RWMutex
	dirs map[string]map[string]Entry[F]
}

const rootMode = vfs.ModeDir | 0o755

// NewNamespace returns a namespace holding only the root directory (ino 1).
func NewNamespace[F any]() *Namespace[F] {
	ns := &Namespace[F]{}
	ns.nextIno.Store(1) // root is ino 1; NextIno hands out 2 onward
	for i := range ns.shard {
		ns.shard[i].dirs = map[string]map[string]Entry[F]{}
	}
	ns.shardOf("/").dirs["/"] = map[string]Entry[F]{}
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

func (ns *Namespace[F]) shardOf(dir string) *nsShard[F] { return &ns.shard[shardIndex(dir)] }

// NextIno reserves and returns a fresh inode number.
func (ns *Namespace[F]) NextIno() uint64 { return ns.nextIno.Add(1) }

// BumpIno raises the inode allocator to at least ino (recovery replay), so
// re-created inodes keep their logged numbers.
func (ns *Namespace[F]) BumpIno(ino uint64) {
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
func (ns *Namespace[F]) FileCount() int64 { return ns.count.Load() }

// lockPair write-locks the shards of two directories in ascending index
// order and returns the unlock function.
func (ns *Namespace[F]) lockPair(dirA, dirB string) func() {
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
func (ns *Namespace[F]) lockAll() func() {
	for i := range ns.shard {
		ns.shard[i].mu.Lock()
	}
	return func() {
		for i := len(ns.shard) - 1; i >= 0; i-- {
			ns.shard[i].mu.Unlock()
		}
	}
}

// rlockAll read-locks every shard in index order; runlockAll releases
// them.
func (ns *Namespace[F]) rlockAll() {
	for i := range ns.shard {
		ns.shard[i].mu.RLock()
	}
}

func (ns *Namespace[F]) runlockAll() {
	for i := len(ns.shard) - 1; i >= 0; i-- {
		ns.shard[i].mu.RUnlock()
	}
}

// classifyMissing gives a path whose parent directory map was absent the
// error a component-by-component walk would: walking ancestors, a missing
// component is ErrNotExist and a file component is ErrNotDir. Called with
// NO shard locks held (it takes shared locks itself); if the parent
// appeared in the window, the op still reports the state it observed.
func (ns *Namespace[F]) classifyMissing(dir string) error {
	e, err := ns.Lookup(dir)
	if err != nil {
		return err
	}
	if !e.IsDir() {
		return vfs.ErrNotDir
	}
	// The parent exists (it raced into existence after the op looked); the
	// op's view remains "not there yet".
	return vfs.ErrNotExist
}

// Lookup resolves path to a copy of its entry.
func (ns *Namespace[F]) Lookup(path string) (Entry[F], error) {
	if vfs.IsRoot(path) {
		return Entry[F]{Ino: 1, Mode: rootMode}, nil
	}
	dir, name := vfs.ParentPath(path)
	s := ns.shardOf(dir)
	s.mu.RLock()
	m := s.dirs[dir]
	if m == nil {
		s.mu.RUnlock()
		return Entry[F]{}, ns.classifyMissing(dir)
	}
	e, ok := m[name]
	s.mu.RUnlock()
	if !ok {
		return Entry[F]{}, vfs.ErrNotExist
	}
	return e, nil
}

// CreateFile inserts a new regular file. mk builds the payload for the
// inode and runs under the shard write lock once the insert is validated,
// so the entry is never visible without it; an error from mk aborts the
// insert. ino 0 allocates a fresh inode; a nonzero ino (replay) is
// installed verbatim and bumps the allocator.
func (ns *Namespace[F]) CreateFile(path string, mode vfs.FileMode, ino uint64, mk func(ino uint64) (F, error)) (Entry[F], error) {
	dir, name := vfs.ParentPath(path)
	if name == "" {
		return Entry[F]{}, vfs.ErrInvalid
	}
	s := ns.shardOf(dir)
	s.mu.Lock()
	m := s.dirs[dir]
	if m == nil {
		s.mu.Unlock()
		return Entry[F]{}, ns.classifyMissing(dir)
	}
	if _, exists := m[name]; exists {
		s.mu.Unlock()
		return Entry[F]{}, vfs.ErrExist
	}
	if ino == 0 {
		ino = ns.NextIno()
	} else {
		ns.BumpIno(ino)
	}
	f, err := mk(ino)
	if err != nil {
		s.mu.Unlock()
		return Entry[F]{}, err
	}
	e := Entry[F]{Ino: ino, Mode: mode &^ vfs.ModeDir, File: f}
	m[name] = e
	ns.count.Add(1)
	s.mu.Unlock()
	return e, nil
}

// Mkdir inserts a new directory and returns its inode number. commit, if
// not nil, runs under the shard write locks once the insert is validated;
// an error from it aborts the insert.
func (ns *Namespace[F]) Mkdir(path string, mode vfs.FileMode, commit func(ino uint64) error) (uint64, error) {
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
	if commit != nil {
		if err := commit(ino); err != nil {
			unlock()
			return 0, err
		}
	}
	pm[name] = Entry[F]{Ino: ino, Mode: mode | vfs.ModeDir}
	ns.shardOf(path).dirs[path] = map[string]Entry[F]{}
	ns.count.Add(1)
	unlock()
	return ino, nil
}

// Remove deletes a file or empty directory and returns the removed entry.
// commit, if not nil, runs under the shard write locks once the removal is
// validated; an error from it aborts the removal.
func (ns *Namespace[F]) Remove(path string, commit func() error) (Entry[F], error) {
	path = vfs.CleanPath(path)
	dir, name := vfs.ParentPath(path)
	if name == "" {
		return Entry[F]{}, vfs.ErrInvalid
	}
	// Both the parent's shard (entry) and the path's own shard (child dir
	// map, when path is a directory) are needed; locked in index order.
	unlock := ns.lockPair(dir, path)
	pm := ns.shardOf(dir).dirs[dir]
	if pm == nil {
		unlock()
		return Entry[F]{}, ns.classifyMissing(dir)
	}
	e, ok := pm[name]
	if !ok {
		unlock()
		return Entry[F]{}, vfs.ErrNotExist
	}
	if e.IsDir() && len(ns.shardOf(path).dirs[path]) > 0 {
		unlock()
		return Entry[F]{}, vfs.ErrNotEmpty
	}
	if commit != nil {
		if err := commit(); err != nil {
			unlock()
			return Entry[F]{}, err
		}
	}
	if e.IsDir() {
		delete(ns.shardOf(path).dirs, path)
	}
	delete(pm, name)
	ns.count.Add(-1)
	unlock()
	return e, nil
}

// Moved is a regular file a rename moved, and its new path.
type Moved[F any] struct {
	File F
	Path string
}

// Rename moves oldPath to newPath. The destination must not exist, and a
// directory cannot move into its own subtree (ErrInvalid). File renames
// lock the two parent shards in index order; directory renames lock every
// shard (the move rekeys all directory maps under the old prefix). commit,
// if not nil, runs under those locks once the move is validated; an error
// from it aborts the move. Rename returns every regular file it moved —
// the renamed file, or each file under the renamed directory — with its
// new path.
func (ns *Namespace[F]) Rename(oldPath, newPath string, commit func() error) (Entry[F], []Moved[F], error) {
	oldPath, newPath = vfs.CleanPath(oldPath), vfs.CleanPath(newPath)
	oldDir, oldName := vfs.ParentPath(oldPath)
	newDir, newName := vfs.ParentPath(newPath)
	if oldName == "" || newName == "" {
		return Entry[F]{}, nil, vfs.ErrInvalid
	}

	unlock := ns.lockPair(oldDir, newDir)
	om := ns.shardOf(oldDir).dirs[oldDir]
	if om == nil {
		unlock()
		return Entry[F]{}, nil, ns.classifyMissing(oldDir)
	}
	e, ok := om[oldName]
	if !ok {
		unlock()
		return Entry[F]{}, nil, vfs.ErrNotExist
	}
	if e.IsDir() {
		// Directory move: retry from scratch under all shard locks (the
		// two-shard view cannot rekey child maps in other shards).
		unlock()
		return ns.renameDir(oldPath, newPath, commit)
	}
	nm := ns.shardOf(newDir).dirs[newDir]
	if nm == nil {
		unlock()
		return Entry[F]{}, nil, ns.classifyMissing(newDir)
	}
	if _, exists := nm[newName]; exists {
		unlock()
		return Entry[F]{}, nil, vfs.ErrExist
	}
	if commit != nil {
		if err := commit(); err != nil {
			unlock()
			return Entry[F]{}, nil, err
		}
	}
	delete(om, oldName)
	nm[newName] = e
	unlock()
	return e, []Moved[F]{{e.File, newPath}}, nil
}

// renameDir moves a directory under all shard locks, revalidating from
// scratch (the caller dropped its locks before escalating).
func (ns *Namespace[F]) renameDir(oldPath, newPath string, commit func() error) (Entry[F], []Moved[F], error) {
	oldDir, oldName := vfs.ParentPath(oldPath)
	newDir, newName := vfs.ParentPath(newPath)

	unlock := ns.lockAll()
	om := ns.shardOf(oldDir).dirs[oldDir]
	if om == nil {
		unlock()
		return Entry[F]{}, nil, ns.classifyMissing(oldDir)
	}
	e, ok := om[oldName]
	if !ok {
		unlock()
		return Entry[F]{}, nil, vfs.ErrNotExist
	}
	if !e.IsDir() {
		// Raced back into a file; redo as a plain rename.
		unlock()
		return ns.Rename(oldPath, newPath, commit)
	}
	// Moving a directory into its own subtree would orphan it.
	if newDir == oldPath || strings.HasPrefix(newDir, oldPath+"/") {
		unlock()
		return Entry[F]{}, nil, vfs.ErrInvalid
	}
	nm := ns.shardOf(newDir).dirs[newDir]
	if nm == nil {
		unlock()
		return Entry[F]{}, nil, ns.classifyMissing(newDir)
	}
	if _, exists := nm[newName]; exists {
		unlock()
		return Entry[F]{}, nil, vfs.ErrExist
	}
	if commit != nil {
		if err := commit(); err != nil {
			unlock()
			return Entry[F]{}, nil, err
		}
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
	var moved []Moved[F]
	for _, mv := range moves {
		from := ns.shardOf(mv.from)
		m := from.dirs[mv.from]
		delete(from.dirs, mv.from)
		ns.shardOf(mv.to).dirs[mv.to] = m
		for name, child := range m {
			if !child.IsDir() {
				moved = append(moved, Moved[F]{child.File, childPath(mv.to, name)})
			}
		}
	}
	unlock()
	return e, moved, nil
}

// SetFileMode updates a regular file entry's cached mode bits (chmod).
func (ns *Namespace[F]) SetFileMode(path string, mode vfs.FileMode) {
	dir, name := vfs.ParentPath(vfs.CleanPath(path))
	s := ns.shardOf(dir)
	s.mu.Lock()
	if m := s.dirs[dir]; m != nil {
		if e, ok := m[name]; ok && !e.IsDir() {
			e.Mode = mode &^ vfs.ModeDir
			m[name] = e
		}
	}
	s.mu.Unlock()
}

// ReadDir lists path's entries in lexical order.
func (ns *Namespace[F]) ReadDir(path string) ([]vfs.DirEntry, error) {
	path = vfs.CleanPath(path)
	s := ns.shardOf(path)
	s.mu.RLock()
	m := s.dirs[path]
	if m == nil {
		s.mu.RUnlock()
		// Distinguish "no such dir" from "path is a file".
		e, err := ns.Lookup(path)
		if err != nil {
			return nil, err
		}
		if !e.IsDir() {
			return nil, vfs.ErrNotDir
		}
		return nil, vfs.ErrNotExist
	}
	out := make([]vfs.DirEntry, 0, len(m))
	for name, e := range m {
		out = append(out, vfs.DirEntry{Name: name, IsDir: e.IsDir()})
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b vfs.DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// WalkAll visits every entry in lexical order, parents before children,
// under all shard read locks. path is valid only during fn: it aliases a
// buffer the walk reuses, so a caller that keeps it copies it
// (strings.Clone). The walk allocates nothing per entry, so a compaction
// snapshot costs no heap that grows with the namespace. Walks serialize
// on their scratch; fn must not walk again.
func (ns *Namespace[F]) WalkAll(fn func(path string, e Entry[F])) { ns.walkAll(fn, true) }

// WalkHeld is WalkAll without the shard locks, for an owner that keeps
// every other user out itself, as FS does with Mu: it may run inside the
// callbacks of CreateFile, Mkdir, Remove and Rename (an FS commit that
// compacts the journal).
func (ns *Namespace[F]) WalkHeld(fn func(path string, e Entry[F])) { ns.walkAll(fn, false) }

func (ns *Namespace[F]) walkAll(fn func(path string, e Entry[F]), lock bool) {
	w := &ns.walk
	w.mu.Lock()
	defer w.mu.Unlock()
	if lock {
		ns.rlockAll()
		defer ns.runlockAll()
	}
	w.path = append(w.path[:0], '/')
	ns.walkDir(fn)
	clear(w.names[:cap(w.names)]) // drop the names of removed entries
}

// walkScratch is WalkAll's reused state: the path of the entry being
// visited, and a stack of the sorted child names of every directory on
// that path.
type walkScratch struct {
	mu    sync.Mutex
	path  []byte
	names []string
}

// walkDir visits the children of the directory walk.path names, and their
// subtrees. Caller holds walk.mu and every shard's read lock (or, for
// WalkHeld, keeps writers out by its own lock).
func (ns *Namespace[F]) walkDir(fn func(path string, e Entry[F])) {
	w := &ns.walk
	dir := unsafe.String(unsafe.SliceData(w.path), len(w.path))
	m := ns.shardOf(dir).dirs[dir]
	base, dirLen := len(w.names), len(w.path)
	for name := range m {
		w.names = append(w.names, name)
	}
	slices.Sort(w.names[base:])
	for i := base; i < base+len(m); i++ {
		name := w.names[i]
		w.path = w.path[:dirLen]
		if dirLen > 1 {
			w.path = append(w.path, '/')
		}
		w.path = append(w.path, name...)
		e := m[name]
		fn(unsafe.String(unsafe.SliceData(w.path), len(w.path)), e)
		if e.IsDir() {
			ns.walkDir(fn)
		}
	}
	w.names, w.path = w.names[:base], w.path[:dirLen]
}

func childPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}
