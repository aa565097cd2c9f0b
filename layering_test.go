package muxfs_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// layers is the package stack, bottom first: a package may import only
// packages of a lower layer. Mux talks down to file systems through vfs,
// and the layers built on Mux (the stripe tier, the namespace wire
// codec, server and RPC client) sit above core, never below it. Paths are relative to
// internal/; the root package sits on top of every layer, and cmd/* on
// top of the root package.
var layers = [][]string{
	{"vfs", "simclock", "telemetry", "guard", "bufpool", "race", "extent", "alloc", "cache"},
	{"device", "pagecache"},
	{"journal", "policy", "fstest"},
	{"fs/fsrec", "policy/autotune"},
	{"fsbase"},
	{"fs/blockfs", "fs/novafs", "strata"},
	{"fs/extlite", "fs/xfslite"},
	{"core"},
	{"muxns"},
	{"ec", "server"},
	{"muxrpc"},
	{"tenant"},
	{"bench"},
}

// TestLayering parses the imports of every non-test Go file in the root
// package, cmd/ and internal/ and checks each import of a module package
// against layers.
func TestLayering(t *testing.T) {
	const module = "muxfs"
	top := len(layers)
	rank := map[string]int{module: top}
	for i, l := range layers {
		for _, p := range l {
			rank[module+"/internal/"+p] = i
		}
	}
	dirs := []string{"."}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && d.Name() != "testdata" {
				dirs = append(dirs, p)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	files := 0
	for _, dir := range dirs {
		pkg := path.Join(module, filepath.ToSlash(dir))
		from, placed := rank[pkg]
		if strings.HasPrefix(pkg, module+"/cmd/") {
			from, placed = top+1, true
		}
		srcs, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			if !placed {
				t.Errorf("package %s has no place in layers", pkg)
				break
			}
			files++
			f, err := parser.ParseFile(token.NewFileSet(), src, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				imp, _ := strconv.Unquote(spec.Path.Value)
				if imp != module && !strings.HasPrefix(imp, module+"/") {
					continue
				}
				if to, ok := rank[imp]; !ok || to >= from {
					t.Errorf("%s imports %s, which is not below it in layers", src, imp)
				}
			}
		}
	}
	if files == 0 {
		t.Fatal("found no Go files to check")
	}
}
