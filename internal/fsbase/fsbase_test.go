package fsbase

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"muxfs/internal/vfs"
)

// echo is the payload constructor of the tests below: each file entry
// carries its own inode number, so a test can tell the payload followed
// the entry.
func echo(ino uint64) (uint64, error) { return ino, nil }

func TestNamespaceBasics(t *testing.T) {
	ns := NewNamespace[uint64]()
	if ns.FileCount() != 0 {
		t.Fatal("fresh namespace not empty")
	}
	root, err := ns.Lookup("/")
	if err != nil || !root.IsDir() || root.Ino != 1 {
		t.Fatalf("root lookup: %+v, %v", root, err)
	}

	e, err := ns.CreateFile("/a", 0o644, 0, echo)
	if err != nil || e.Ino == 0 || e.IsDir() || e.File != e.Ino {
		t.Fatalf("CreateFile: %+v, %v", e, err)
	}
	if got, err := ns.Lookup("/a"); err != nil || got != e {
		t.Fatalf("Lookup = %+v, %v, want %+v", got, err, e)
	}
	if _, err := ns.CreateFile("/a", 0o644, 0, echo); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := ns.CreateFile("/", 0o644, 0, echo); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("create at root: %v", err)
	}
	if _, err := ns.Mkdir("/", vfs.ModeDir|0o755, nil); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("mkdir at root: %v", err)
	}
	if _, err := ns.Remove("/", nil); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("remove root: %v", err)
	}
	if _, err := ns.CreateFile("/missing/f", 0o644, 0, echo); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("create under missing dir: %v", err)
	}
	if _, err := ns.CreateFile("/a/f", 0o644, 0, echo); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("create under file: %v", err)
	}
	if _, err := ns.Lookup("/a/b/c"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("lookup through file: %v", err)
	}
	if _, err := ns.ReadDir("/a"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("readdir of file: %v", err)
	}
	if ns.FileCount() != 1 {
		t.Fatalf("FileCount = %d", ns.FileCount())
	}
	ns.SetFileMode("/a", 0o600)
	if got, _ := ns.Lookup("/a"); got.Mode != 0o600 {
		t.Fatalf("SetFileMode: mode %v", got.Mode)
	}
}

func TestNamespaceInoAllocation(t *testing.T) {
	ns := NewNamespace[uint64]()
	a, _ := ns.CreateFile("/a", 0o644, 0, echo)
	b, _ := ns.CreateFile("/b", 0o644, 0, echo)
	if a.Ino == b.Ino {
		t.Fatal("duplicate ino")
	}
	// Recovery-style creation with an explicit high ino bumps the allocator.
	c, err := ns.CreateFile("/c", 0o644, 1000, echo)
	if err != nil || c.Ino != 1000 || c.File != 1000 {
		t.Fatalf("CreateFile with ino: %+v, %v", c, err)
	}
	d, _ := ns.CreateFile("/d", 0o644, 0, echo)
	if d.Ino != 1001 {
		t.Fatalf("allocator did not bump past explicit ino: %d", d.Ino)
	}
}

func TestNamespaceRenameSemantics(t *testing.T) {
	ns := NewNamespace[uint64]()
	ns.Mkdir("/d1", 0o755, nil)
	ns.Mkdir("/d2", 0o755, nil)
	f, _ := ns.CreateFile("/d1/f", 0o644, 0, echo)

	e, moved, err := ns.Rename("/d1/f", "/d2/g", nil)
	if err != nil || e.Ino != f.Ino {
		t.Fatalf("rename: %+v, %v", e, err)
	}
	if fmt.Sprint(moved) != fmt.Sprint([]Moved[uint64]{{f.Ino, "/d2/g"}}) {
		t.Fatalf("file rename moved %v", moved)
	}
	if _, err := ns.Lookup("/d1/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("old name lingers")
	}
	if _, err := ns.Lookup("/d2/g"); err != nil {
		t.Fatal("new name missing")
	}
	// Rename a whole directory; children follow, and every file under it
	// is reported with its new path.
	ns.Mkdir("/d2/sub", 0o755, nil)
	child, _ := ns.CreateFile("/d2/sub/child", 0o644, 0, echo)
	if _, moved, err = ns.Rename("/d2", "/renamed", nil); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]string{}
	for _, mv := range moved {
		got[mv.File] = mv.Path
	}
	want := map[uint64]string{f.Ino: "/renamed/g", child.Ino: "/renamed/sub/child"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("directory rename moved %v, want %v", got, want)
	}
	if _, err := ns.Lookup("/renamed/sub/child"); err != nil {
		t.Fatal("child lost in directory rename")
	}
	// A directory cannot move into its own subtree, at any depth.
	for _, dst := range []string{"/renamed/sub/x", "/renamed/x", "/renamed/sub"} {
		if _, _, err := ns.Rename("/renamed", dst, nil); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("rename /renamed -> %s: %v, want ErrInvalid", dst, err)
		}
	}
	if _, err := ns.Lookup("/renamed/sub/child"); err != nil {
		t.Fatal("refused subtree rename changed the tree")
	}
	if _, _, err := ns.Rename("/renamed/g", "/d1", nil); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("rename onto existing dir: %v", err)
	}
	if _, _, err := ns.Rename("/renamed/g", "/nowhere/g", nil); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("rename into missing dir: %v", err)
	}
	if _, err := ns.Remove("/renamed", nil); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("remove non-empty dir: %v", err)
	}
	if ns.FileCount() != 5 {
		t.Fatalf("FileCount = %d, want 5", ns.FileCount())
	}
}

func TestWalkOrders(t *testing.T) {
	ns := NewNamespace[uint64]()
	ns.Mkdir("/b", 0o755, nil)
	ns.Mkdir("/a", 0o755, nil)
	ns.CreateFile("/a/z", 0o644, 0, echo)
	ns.CreateFile("/a/y", 0o644, 0, echo)
	ns.CreateFile("/top", 0o644, 0, echo)

	var all []string
	ns.WalkAll(func(path string, e Entry[uint64]) { all = append(all, strings.Clone(path)) })
	want := []string{"/a", "/a/y", "/a/z", "/b", "/top"}
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Fatalf("WalkAll = %v, want %v", all, want)
	}

	ents, err := ns.ReadDir("/a")
	if err != nil || fmt.Sprint(ents) != fmt.Sprint([]vfs.DirEntry{{Name: "y"}, {Name: "z"}}) {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
}

func TestMetaApply(t *testing.T) {
	m := Meta{Size: 100, Mode: 0o644, ModTime: 1, ATime: 2, CTime: 3}
	now := 50 * time.Nanosecond

	// Empty attr: no change, ctime untouched.
	if m.Apply(vfs.SetAttr{}, now) {
		t.Fatal("empty SetAttr reported change")
	}
	if m.CTime != 3 {
		t.Fatal("ctime bumped without change")
	}

	size := int64(200)
	mode := vfs.FileMode(0o600)
	if !m.Apply(vfs.SetAttr{Size: &size, Mode: &mode}, now) {
		t.Fatal("change not reported")
	}
	if m.Size != 200 || m.Mode != 0o600 || m.CTime != now {
		t.Fatalf("apply result: %+v", m)
	}

	// Dir bit cannot be smuggled in through SetAttr.
	dirMode := vfs.ModeDir | 0o777
	m.Apply(vfs.SetAttr{Mode: &dirMode}, now)
	if m.Mode.IsDir() {
		t.Fatal("SetAttr turned a file into a directory")
	}

	// Same values again: no change.
	if m.Apply(vfs.SetAttr{Size: &size}, now+1) {
		t.Fatal("idempotent SetAttr reported change")
	}
}

func TestMetaInfo(t *testing.T) {
	m := Meta{Size: 10, Blocks: 4096, Mode: 0o644, ModTime: 5, ATime: 6, CTime: 7}
	fi := m.Info("/p")
	if fi.Path != "/p" || fi.Size != 10 || fi.Blocks != 4096 || fi.ModTime != 5 {
		t.Fatalf("Info = %+v", fi)
	}
}
