package vfs

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"":               "/",
		"/":              "/",
		"//":             "/",
		"a":              "/a",
		"/a/b":           "/a/b",
		"/a//b/":         "/a/b",
		"/a/./b":         "/a/b",
		"/a/../b":        "/b",
		"/../..":         "/",
		"a/b/../../c/d/": "/c/d",
	}
	for in, want := range cases {
		if got := CleanPath(in); got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCleanPathFastPath holds CleanPath's single-scan fast path to the
// split+join definition on clean and unclean inputs alike, and checks a
// clean path comes back without allocating.
func TestCleanPathFastPath(t *testing.T) {
	splitJoin := func(p string) string { return "/" + strings.Join(SplitPath(p), "/") }
	for _, p := range []string{
		"/", "/a", "/a/b", "/abc/de/f", "/a.b/c..d/...", "/.a/..b", "/a b/ñ",
		"", "a", "a/b", "//", "/a/", "/a//b", "//a", "/a/b/", "/.", "/..",
		"/a/.", "/a/..", "/./a", "/../a", "/a/./b", "/a/../b", "/a/b/..", ".", "..",
	} {
		if got, want := CleanPath(p), splitJoin(p); got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", p, got, want)
		}
		if clean := splitJoin(p); isClean(p) != (p == clean) {
			t.Errorf("isClean(%q) = %v, but split+join gives %q", p, isClean(p), clean)
		}
	}
	if n := testing.AllocsPerRun(100, func() { CleanPath("/dir/sub/file.dat") }); n != 0 {
		t.Errorf("CleanPath of a clean path allocates %v times", n)
	}
}

func TestCleanPathIdempotent(t *testing.T) {
	f := func(p string) bool {
		c := CleanPath(p)
		return CleanPath(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParentPath also holds the substring fast path for clean paths to
// the split+join definition, and checks it does not allocate.
func TestParentPath(t *testing.T) {
	cases := []struct{ in, dir, name string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b/c", "/a/b", "c"},
		{"a/b", "/a", "b"},
	}
	for _, c := range cases {
		dir, name := ParentPath(c.in)
		if dir != c.dir || name != c.name {
			t.Errorf("ParentPath(%q) = (%q, %q), want (%q, %q)", c.in, dir, name, c.dir, c.name)
		}
	}
	for _, p := range []string{
		"/", "/a", "/a/b", "/abc/de/f", "/a.b/c..d/...", "/.a/..b", "/a b/ñ",
		"", "a", "a/b", "//", "/a/", "/a//b", "//a", "/a/b/", "/.", "/..",
		"/a/.", "/a/..", "/./a", "/../a", "/a/./b", "/a/../b", "/a/b/..", ".", "..",
	} {
		segs := SplitPath(p)
		wantDir, wantName := "/", ""
		if len(segs) > 0 {
			wantDir, wantName = "/"+strings.Join(segs[:len(segs)-1], "/"), segs[len(segs)-1]
		}
		if dir, name := ParentPath(p); dir != wantDir || name != wantName {
			t.Errorf("ParentPath(%q) = (%q, %q), want (%q, %q)", p, dir, name, wantDir, wantName)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParentPath("/dir/sub/file.dat") }); n != 0 {
		t.Errorf("ParentPath of a clean path allocates %v times", n)
	}
}

func TestIsRoot(t *testing.T) {
	if !IsRoot("/") || !IsRoot("") || !IsRoot("/a/..") {
		t.Error("IsRoot false negatives")
	}
	if IsRoot("/a") {
		t.Error("IsRoot(/a) = true")
	}
}

func TestBasePath(t *testing.T) {
	if got := BasePath("/a/b/c"); got != "c" {
		t.Errorf("BasePath = %q", got)
	}
	if got := BasePath("/"); got != "" {
		t.Errorf("BasePath(/) = %q", got)
	}
}

func TestPathErrorWrapping(t *testing.T) {
	err := Errf("open", "nova@pmem0", "/x", ErrNotExist)
	if !errors.Is(err, ErrNotExist) {
		t.Fatal("PathError does not unwrap to sentinel")
	}
	var pe *PathError
	if !errors.As(err, &pe) || pe.Op != "open" || pe.FS != "nova@pmem0" || pe.Path != "/x" {
		t.Fatalf("PathError fields lost: %+v", pe)
	}
	want := "open nova@pmem0:/x: file does not exist"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestFileModeHelpers(t *testing.T) {
	m := ModeDir | 0o755
	if !m.IsDir() {
		t.Error("IsDir lost")
	}
	if m.Perm() != 0o755 {
		t.Errorf("Perm = %o", m.Perm())
	}
	var f FileMode = 0o644
	if f.IsDir() {
		t.Error("plain file IsDir = true")
	}
}

func TestExtentEnd(t *testing.T) {
	e := Extent{Off: 4096, Len: 8192}
	if e.End() != 12288 {
		t.Fatalf("End = %d", e.End())
	}
}

func TestFileInfoIsDir(t *testing.T) {
	fi := FileInfo{Mode: ModeDir | 0o700}
	if !fi.IsDir() {
		t.Error("FileInfo.IsDir false for dir")
	}
}
