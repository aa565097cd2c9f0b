package fsbase

import (
	"sort"

	"muxfs/internal/vfs"
)

// Node is one dentry in the namespace tree. Directories carry Children;
// regular files carry only the inode number that the owning file system maps
// to its data structures.
type Node struct {
	Ino      uint64
	Mode     vfs.FileMode
	Children map[string]*Node // non-nil iff directory
}

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.Children != nil }

// Namespace is a rooted directory tree. It is not internally synchronized;
// the owning file system serializes access under its own lock.
type Namespace struct {
	root    *Node
	nextIno uint64
	count   int64 // live files + directories, excluding root
}

// NewNamespace returns a namespace with an empty root directory.
func NewNamespace() *Namespace {
	return &Namespace{
		root:    &Node{Ino: 1, Mode: vfs.ModeDir | 0o755, Children: map[string]*Node{}},
		nextIno: 2,
	}
}

// NextIno reserves and returns a fresh inode number.
func (ns *Namespace) NextIno() uint64 {
	ino := ns.nextIno
	ns.nextIno++
	return ino
}

// BumpIno raises the inode allocator above ino (used during recovery replay
// so re-created inodes keep their logged numbers).
func (ns *Namespace) BumpIno(ino uint64) {
	if ino >= ns.nextIno {
		ns.nextIno = ino + 1
	}
}

// FileCount returns the number of live entries (files + dirs, sans root).
func (ns *Namespace) FileCount() int64 { return ns.count }

// Lookup resolves path to a node.
func (ns *Namespace) Lookup(path string) (*Node, error) {
	node := ns.root
	for _, seg := range vfs.SplitPath(path) {
		if !node.IsDir() {
			return nil, vfs.ErrNotDir
		}
		child, ok := node.Children[seg]
		if !ok {
			return nil, vfs.ErrNotExist
		}
		node = child
	}
	return node, nil
}

// lookupParent resolves the parent directory of path and the final name.
func (ns *Namespace) lookupParent(path string) (*Node, string, error) {
	dir, name := vfs.ParentPath(path)
	if name == "" {
		return nil, "", vfs.ErrInvalid // operations on the root
	}
	parent, err := ns.Lookup(dir)
	if err != nil {
		return nil, "", err
	}
	if !parent.IsDir() {
		return nil, "", vfs.ErrNotDir
	}
	return parent, name, nil
}

// CreateFile inserts a new regular file node with a fresh inode number.
func (ns *Namespace) CreateFile(path string, mode vfs.FileMode) (*Node, error) {
	return ns.insert(path, mode&^vfs.ModeDir, 0)
}

// CreateFileIno inserts a regular file with a specific inode number
// (recovery replay).
func (ns *Namespace) CreateFileIno(path string, mode vfs.FileMode, ino uint64) (*Node, error) {
	return ns.insert(path, mode&^vfs.ModeDir, ino)
}

// Mkdir inserts a new directory node.
func (ns *Namespace) Mkdir(path string, mode vfs.FileMode) (*Node, error) {
	return ns.insert(path, mode|vfs.ModeDir, 0)
}

func (ns *Namespace) insert(path string, mode vfs.FileMode, ino uint64) (*Node, error) {
	parent, name, err := ns.lookupParent(path)
	if err != nil {
		return nil, err
	}
	if _, exists := parent.Children[name]; exists {
		return nil, vfs.ErrExist
	}
	if ino == 0 {
		ino = ns.NextIno()
	} else {
		ns.BumpIno(ino)
	}
	node := &Node{Ino: ino, Mode: mode}
	if mode.IsDir() {
		node.Children = map[string]*Node{}
	}
	parent.Children[name] = node
	ns.count++
	return node, nil
}

// Remove deletes a file or empty directory and returns the removed node.
func (ns *Namespace) Remove(path string) (*Node, error) {
	parent, name, err := ns.lookupParent(path)
	if err != nil {
		return nil, err
	}
	node, ok := parent.Children[name]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	if node.IsDir() && len(node.Children) > 0 {
		return nil, vfs.ErrNotEmpty
	}
	delete(parent.Children, name)
	ns.count--
	return node, nil
}

// Rename moves oldPath to newPath. The destination must not exist.
func (ns *Namespace) Rename(oldPath, newPath string) (*Node, error) {
	oldParent, oldName, err := ns.lookupParent(oldPath)
	if err != nil {
		return nil, err
	}
	node, ok := oldParent.Children[oldName]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	newParent, newName, err := ns.lookupParent(newPath)
	if err != nil {
		return nil, err
	}
	if _, exists := newParent.Children[newName]; exists {
		return nil, vfs.ErrExist
	}
	delete(oldParent.Children, oldName)
	newParent.Children[newName] = node
	return node, nil
}

// ReadDir lists path's entries in lexical order.
func (ns *Namespace) ReadDir(path string) ([]vfs.DirEntry, error) {
	node, err := ns.Lookup(path)
	if err != nil {
		return nil, err
	}
	if !node.IsDir() {
		return nil, vfs.ErrNotDir
	}
	out := make([]vfs.DirEntry, 0, len(node.Children))
	for name, child := range node.Children {
		out = append(out, vfs.DirEntry{Name: name, IsDir: child.IsDir()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// WalkAll visits every entry (directories before their children), in
// lexical order, as (path, node). Log compaction uses it to re-log the
// namespace in a replayable order.
func (ns *Namespace) WalkAll(fn func(path string, node *Node)) {
	var walk func(prefix string, n *Node)
	walk = func(prefix string, n *Node) {
		names := make([]string, 0, len(n.Children))
		for name := range n.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			child := n.Children[name]
			p := prefix + "/" + name
			fn(p, child)
			if child.IsDir() {
				walk(p, child)
			}
		}
	}
	walk("", ns.root)
}

// WalkFiles visits every regular file as (path, node), depth-first in
// lexical order. Recovery and Statfs use it.
func (ns *Namespace) WalkFiles(fn func(path string, node *Node)) {
	var walk func(prefix string, n *Node)
	walk = func(prefix string, n *Node) {
		names := make([]string, 0, len(n.Children))
		for name := range n.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			child := n.Children[name]
			p := prefix + "/" + name
			if child.IsDir() {
				walk(p, child)
			} else {
				fn(p, child)
			}
		}
	}
	walk("", ns.root)
}
