package fsbase

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"muxfs/internal/vfs"
)

// TestNamespaceConcurrentRenames runs lookups, creates, cross-directory
// file renames and directory renames on one table at once. Each renamed
// object only moves forward through a numbered sequence of names, so a
// reader that scans forward from the last name it saw must find it: an
// object that is under neither its old name nor its new one shows up as a
// scan that runs off the end. make stress repeats it under -race.
func TestNamespaceConcurrentRenames(t *testing.T) {
	const steps = 200
	ns := NewNamespace[uint64]()
	for _, d := range []string{"/p0", "/p1", "/c", "/d0", "/d0/sub"} {
		if _, err := ns.Mkdir(d, 0o755, nil); err != nil {
			t.Fatal(err)
		}
	}
	file, _ := ns.CreateFile("/p0/f0", 0o644, 0, echo)
	x, _ := ns.CreateFile("/d0/x", 0o644, 0, echo)
	y, _ := ns.CreateFile("/d0/sub/y", 0o644, 0, echo)

	// The file hops between /p0 and /p1; the directory takes a new name.
	filePath := func(i int) string { return fmt.Sprintf("/p%d/f%d", i%2, i) }
	dirPath := func(i int) string { return fmt.Sprintf("/d%d", i) }

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	run := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errc <- err
			}
		}()
	}
	run(func() error {
		for i := 1; i <= steps; i++ {
			if _, moved, err := ns.Rename(filePath(i-1), filePath(i), nil); err != nil {
				return fmt.Errorf("file rename %d: %w", i, err)
			} else if len(moved) != 1 || moved[0].File != file.Ino || moved[0].Path != filePath(i) {
				return fmt.Errorf("file rename %d moved %v", i, moved)
			}
		}
		return nil
	})
	run(func() error {
		for i := 1; i <= steps; i++ {
			_, moved, err := ns.Rename(dirPath(i-1), dirPath(i), nil)
			if err != nil {
				return fmt.Errorf("dir rename %d: %w", i, err)
			}
			got := map[uint64]string{}
			for _, mv := range moved {
				got[mv.File] = mv.Path
			}
			want := map[uint64]string{x.Ino: dirPath(i) + "/x", y.Ino: dirPath(i) + "/sub/y"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("dir rename %d moved %v, want %v", i, got, want)
			}
		}
		return nil
	})
	run(func() error {
		for i := 0; i < steps; i++ {
			p := fmt.Sprintf("/c/n%03d", i)
			e, err := ns.CreateFile(p, 0o644, 0, echo)
			if err != nil {
				return fmt.Errorf("create %s: %w", p, err)
			}
			if got, err := ns.Lookup(p); err != nil || got != e {
				return fmt.Errorf("lookup of created %s: %+v, %v", p, got, err)
			}
		}
		return nil
	})
	// follow scans forward from the last name it found the object under.
	follow := func(what string, ino uint64, name func(int) string) func() error {
		return func() error {
			at := 0
			for round := 0; round < 4*steps; round++ {
				for {
					if at > steps {
						return fmt.Errorf("%s found under no name", what)
					}
					e, err := ns.Lookup(name(at))
					if err == nil {
						if e.File != ino {
							return fmt.Errorf("%s: %s holds ino %d", what, name(at), e.File)
						}
						break
					}
					if !errors.Is(err, vfs.ErrNotExist) {
						return fmt.Errorf("%s: lookup %s: %w", what, name(at), err)
					}
					at++
				}
			}
			return nil
		}
	}
	run(follow("file", file.Ino, filePath))
	run(follow("file under renamed dir", x.Ino, func(i int) string { return dirPath(i) + "/x" }))
	run(follow("file under renamed subdir", y.Ino, func(i int) string { return dirPath(i) + "/sub/y" }))
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Five dirs, three moved files, steps created files.
	if n := ns.FileCount(); n != int64(5+3+steps) {
		t.Fatalf("FileCount = %d, want %d", n, 5+3+steps)
	}
	var walked []string
	ns.WalkAll(func(path string, _ Entry[uint64]) { walked = append(walked, strings.Clone(path)) })
	want := []string{"/c"}
	for i := 0; i < steps; i++ {
		want = append(want, fmt.Sprintf("/c/n%03d", i))
	}
	want = append(want, dirPath(steps), dirPath(steps)+"/sub", dirPath(steps)+"/sub/y", dirPath(steps)+"/x",
		"/p0", "/p0/"+vfs.BasePath(filePath(steps)), "/p1")
	if !slices.Equal(walked, want) {
		t.Fatalf("WalkAll =\n%v\nwant\n%v", walked, want)
	}
}
