// Package fstest provides a reusable VFS conformance suite. Every file
// system in the repository — the three native file systems, the Strata
// baseline, the RPC proxy, and Mux itself — must pass the same behavioral
// contract, which is precisely the paper's architectural bet: if the VFS
// interface is honored uniformly, a tiered file system can be composed from
// arbitrary file systems underneath.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"muxfs/internal/vfs"
)

// Maker builds a fresh, empty file system for one subtest.
type Maker func(t *testing.T) vfs.FileSystem

// RunConformance exercises the full VFS contract against file systems
// produced by mk.
func RunConformance(t *testing.T, mk Maker) {
	t.Run("CreateAndStat", func(t *testing.T) { testCreateAndStat(t, mk(t)) })
	t.Run("CreateExisting", func(t *testing.T) { testCreateExisting(t, mk(t)) })
	t.Run("CreateMissingParent", func(t *testing.T) { testCreateMissingParent(t, mk(t)) })
	t.Run("OpenMissing", func(t *testing.T) { testOpenMissing(t, mk(t)) })
	t.Run("WriteReadRoundTrip", func(t *testing.T) { testWriteRead(t, mk(t)) })
	t.Run("ReadAtEOF", func(t *testing.T) { testReadAtEOF(t, mk(t)) })
	t.Run("OverwriteMiddle", func(t *testing.T) { testOverwriteMiddle(t, mk(t)) })
	t.Run("SparseFile", func(t *testing.T) { testSparse(t, mk(t)) })
	t.Run("Extents", func(t *testing.T) { testExtents(t, mk(t)) })
	t.Run("PunchHole", func(t *testing.T) { testPunchHole(t, mk(t)) })
	t.Run("TruncateShrinkGrow", func(t *testing.T) { testTruncate(t, mk(t)) })
	t.Run("Append", func(t *testing.T) { testAppend(t, mk(t)) })
	t.Run("MkdirReadDir", func(t *testing.T) { testMkdirReadDir(t, mk(t)) })
	t.Run("Remove", func(t *testing.T) { testRemove(t, mk(t)) })
	t.Run("RemoveNonEmptyDir", func(t *testing.T) { testRemoveNonEmpty(t, mk(t)) })
	t.Run("Rename", func(t *testing.T) { testRename(t, mk(t)) })
	t.Run("SetAttr", func(t *testing.T) { testSetAttr(t, mk(t)) })
	t.Run("Statfs", func(t *testing.T) { testStatfs(t, mk(t)) })
	t.Run("Timestamps", func(t *testing.T) { testTimestamps(t, mk(t)) })
	t.Run("ClosedHandle", func(t *testing.T) { testClosedHandle(t, mk(t)) })
	t.Run("ManyFiles", func(t *testing.T) { testManyFiles(t, mk(t)) })
	t.Run("DeepPaths", func(t *testing.T) { testDeepPaths(t, mk(t)) })
	t.Run("MessyPathsNormalize", func(t *testing.T) { testMessyPathsNormalize(t, mk(t)) })
	t.Run("EmptyFileSync", func(t *testing.T) { testEmptyFileSync(t, mk(t)) })
	t.Run("HeavilyFragmentedFile", func(t *testing.T) { testHeavilyFragmentedFile(t, mk(t)) })
	t.Run("WriteAtNegativeOffset", func(t *testing.T) { testWriteAtNegativeOffset(t, mk(t)) })
	t.Run("RandomizedIO", func(t *testing.T) { testRandomizedIO(t, mk(t)) })
}

func mustCreate(t *testing.T, fs vfs.FileSystem, path string) vfs.File {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatalf("Create(%q): %v", path, err)
	}
	return f
}

func mustWrite(t *testing.T, f vfs.File, data []byte, off int64) {
	t.Helper()
	n, err := f.WriteAt(data, off)
	if err != nil || n != len(data) {
		t.Fatalf("WriteAt(len=%d, off=%d) = %d, %v", len(data), off, n, err)
	}
}

func mustRead(t *testing.T, f vfs.File, n int, off int64) []byte {
	t.Helper()
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt(%d, %d): %v", n, off, err)
	}
	return buf[:got]
}

func testCreateAndStat(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/a")
	defer f.Close()
	fi, err := fs.Stat("/a")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 0 || fi.IsDir() {
		t.Fatalf("fresh file info = %+v", fi)
	}
	if fi.Path != "/a" {
		t.Fatalf("path = %q", fi.Path)
	}
	hfi, err := f.Stat()
	if err != nil || hfi.Size != 0 {
		t.Fatalf("handle stat = %+v, %v", hfi, err)
	}
	if f.Path() != "/a" {
		t.Fatalf("handle path = %q", f.Path())
	}
}

func testCreateExisting(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/a")
	f.Close()
	if _, err := fs.Create("/a"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("Create existing err = %v", err)
	}
}

func testCreateMissingParent(t *testing.T, fs vfs.FileSystem) {
	if _, err := fs.Create("/no/such/dir/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func testOpenMissing(t *testing.T, fs vfs.FileSystem) {
	if _, err := fs.Open("/ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Open missing err = %v", err)
	}
	if _, err := fs.Stat("/ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Stat missing err = %v", err)
	}
}

func testWriteRead(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/data")
	defer f.Close()
	payload := seqBytes(100 * 1024)
	mustWrite(t, f, payload, 0)
	got := mustRead(t, f, len(payload), 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("round-trip mismatch")
	}
	// Reopen and read again.
	f2, err := fs.Open("/data")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got = mustRead(t, f2, len(payload), 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("reopened read mismatch")
	}
	fi, _ := fs.Stat("/data")
	if fi.Size != int64(len(payload)) {
		t.Fatalf("size = %d, want %d", fi.Size, len(payload))
	}
}

func testReadAtEOF(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/small")
	defer f.Close()
	mustWrite(t, f, []byte("0123456789"), 0)
	buf := make([]byte, 20)
	n, err := f.ReadAt(buf, 5)
	if n != 5 {
		t.Fatalf("short read n = %d", n)
	}
	if !errors.Is(err, io.EOF) {
		t.Fatalf("short read err = %v, want io.EOF", err)
	}
	n, err = f.ReadAt(buf, 100)
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read past EOF = %d, %v", n, err)
	}
}

func testOverwriteMiddle(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/ov")
	defer f.Close()
	mustWrite(t, f, bytes.Repeat([]byte{'a'}, 16384), 0)
	mustWrite(t, f, bytes.Repeat([]byte{'b'}, 5000), 3000)
	got := mustRead(t, f, 16384, 0)
	for i, c := range got {
		want := byte('a')
		if i >= 3000 && i < 8000 {
			want = 'b'
		}
		if c != want {
			t.Fatalf("byte %d = %c, want %c", i, c, want)
		}
	}
	if fi, _ := f.Stat(); fi.Size != 16384 {
		t.Fatalf("overwrite changed size: %d", fi.Size)
	}
}

func testSparse(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/sparse")
	defer f.Close()
	mustWrite(t, f, []byte("tail"), 1<<20) // 1 MiB hole then 4 bytes
	fi, _ := f.Stat()
	if fi.Size != 1<<20+4 {
		t.Fatalf("size = %d", fi.Size)
	}
	if fi.Blocks >= fi.Size {
		t.Fatalf("sparse file fully allocated: blocks=%d size=%d", fi.Blocks, fi.Size)
	}
	hole := mustRead(t, f, 4096, 1000)
	if !bytes.Equal(hole, make([]byte, 4096)) {
		t.Fatal("hole does not read as zeros")
	}
	tail := mustRead(t, f, 4, 1<<20)
	if string(tail) != "tail" {
		t.Fatalf("tail = %q", tail)
	}
}

func testExtents(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/ext")
	defer f.Close()
	mustWrite(t, f, make([]byte, 8192), 0)
	mustWrite(t, f, make([]byte, 4096), 1<<20)
	exts, err := f.Extents()
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) < 2 {
		t.Fatalf("extents = %+v, want >= 2 runs", exts)
	}
	var prevEnd int64 = -1
	var mapped int64
	for _, e := range exts {
		if e.Len <= 0 || e.Off < prevEnd {
			t.Fatalf("bad extent list: %+v", exts)
		}
		prevEnd = e.End()
		mapped += e.Len
	}
	if mapped < 8192+4096 {
		t.Fatalf("extents cover %d bytes", mapped)
	}
	if exts[0].Off != 0 {
		t.Fatalf("first extent at %d", exts[0].Off)
	}
	if last := exts[len(exts)-1]; last.Off > 1<<20 || last.End() < 1<<20+4096 {
		t.Fatalf("tail extent %+v does not cover the far write", last)
	}
}

func testPunchHole(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/punch")
	defer f.Close()
	mustWrite(t, f, bytes.Repeat([]byte{0xAA}, 32768), 0)
	before, _ := f.Stat()
	if err := f.PunchHole(4096, 8192); err != nil {
		t.Fatal(err)
	}
	after, _ := f.Stat()
	if after.Size != before.Size {
		t.Fatalf("punch changed size: %d -> %d", before.Size, after.Size)
	}
	if after.Blocks >= before.Blocks {
		t.Fatalf("punch did not free space: %d -> %d", before.Blocks, after.Blocks)
	}
	got := mustRead(t, f, 32768, 0)
	for i := 0; i < 32768; i++ {
		want := byte(0xAA)
		if i >= 4096 && i < 12288 {
			want = 0
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func testTruncate(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/tr")
	defer f.Close()
	mustWrite(t, f, seqBytes(10000), 0)
	if err := f.Truncate(4000); err != nil {
		t.Fatal(err)
	}
	fi, _ := f.Stat()
	if fi.Size != 4000 {
		t.Fatalf("size after shrink = %d", fi.Size)
	}
	// Grow back: the tail must read as zeros, not stale data.
	if err := f.Truncate(10000); err != nil {
		t.Fatal(err)
	}
	tail := mustRead(t, f, 6000, 4000)
	if !bytes.Equal(tail, make([]byte, 6000)) {
		t.Fatal("grown tail exposes stale data")
	}
	head := mustRead(t, f, 4000, 0)
	if !bytes.Equal(head, seqBytes(10000)[:4000]) {
		t.Fatal("shrink corrupted head")
	}
	// Truncate by path.
	if err := fs.Truncate("/tr", 123); err != nil {
		t.Fatal(err)
	}
	if fi, _ := fs.Stat("/tr"); fi.Size != 123 {
		t.Fatalf("path truncate size = %d", fi.Size)
	}
	if err := f.Truncate(-1); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("negative truncate err = %v", err)
	}
}

func testAppend(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/log")
	defer f.Close()
	var want bytes.Buffer
	for i := 0; i < 50; i++ {
		chunk := []byte(fmt.Sprintf("entry-%03d\n", i))
		fi, _ := f.Stat()
		mustWrite(t, f, chunk, fi.Size)
		want.Write(chunk)
	}
	got := mustRead(t, f, want.Len(), 0)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("append sequence mismatch")
	}
}

func testMkdirReadDir(t *testing.T, fs vfs.FileSystem) {
	if err := fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/dir/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/dir"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("duplicate mkdir err = %v", err)
	}
	if err := fs.Mkdir("/nope/sub"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("mkdir missing parent err = %v", err)
	}
	mustCreate(t, fs, "/dir/b").Close()
	mustCreate(t, fs, "/dir/a").Close()
	ents, err := fs.ReadDir("/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 || ents[0].Name != "a" || ents[1].Name != "b" || ents[2].Name != "sub" {
		t.Fatalf("ReadDir = %+v", ents)
	}
	if ents[2].IsDir != true || ents[0].IsDir != false {
		t.Fatalf("IsDir flags wrong: %+v", ents)
	}
	if _, err := fs.ReadDir("/dir/a"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("ReadDir on file err = %v", err)
	}
	fi, err := fs.Stat("/dir")
	if err != nil || !fi.IsDir() {
		t.Fatalf("dir stat = %+v, %v", fi, err)
	}
}

func testRemove(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/gone")
	mustWrite(t, f, make([]byte, 8192), 0)
	f.Close()
	used := func() int64 { s, _ := fs.Statfs(); return s.Used }
	before := used()
	if err := fs.Remove("/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/gone"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("open removed err = %v", err)
	}
	if err := fs.Remove("/gone"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("double remove err = %v", err)
	}
	if after := used(); after >= before {
		t.Fatalf("remove freed no space: %d -> %d", before, after)
	}
	// Empty dir removal works.
	fs.Mkdir("/d")
	if err := fs.Remove("/d"); err != nil {
		t.Fatal(err)
	}
}

func testRemoveNonEmpty(t *testing.T, fs vfs.FileSystem) {
	fs.Mkdir("/d")
	mustCreate(t, fs, "/d/f").Close()
	if err := fs.Remove("/d"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("remove non-empty err = %v", err)
	}
}

func testRename(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/old")
	mustWrite(t, f, []byte("payload"), 0)
	f.Close()
	fs.Mkdir("/dir")
	if err := fs.Rename("/old", "/dir/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/old"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("old name survives: %v", err)
	}
	f2, err := fs.Open("/dir/new")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := mustRead(t, f2, 7, 0); string(got) != "payload" {
		t.Fatalf("renamed contents = %q", got)
	}
	if err := fs.Rename("/ghost", "/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("rename missing err = %v", err)
	}
	mustCreate(t, fs, "/clash").Close()
	if err := fs.Rename("/dir/new", "/clash"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("rename onto existing err = %v", err)
	}

	// A directory cannot move into its own subtree: the move would detach
	// the subtree from the root. The refusal leaves it whole.
	for _, d := range []string{"/tree", "/tree/a", "/tree/a/b"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	f = mustCreate(t, fs, "/tree/a/b/x")
	mustWrite(t, f, []byte("subtree"), 0)
	f.Close()
	for _, dst := range []string{"/tree/a/b/c", "/tree/a/c"} {
		if err := fs.Rename("/tree", dst); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("rename /tree into its subtree %s: err = %v, want ErrInvalid", dst, err)
		}
	}
	if ents, err := fs.ReadDir("/tree/a/b"); err != nil || len(ents) != 1 || ents[0].Name != "x" {
		t.Fatalf("subtree after refused rename: %v, %v", ents, err)
	}
	f3, err := fs.Open("/tree/a/b/x")
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if got := mustRead(t, f3, 7, 0); string(got) != "subtree" {
		t.Fatalf("subtree file after refused rename = %q", got)
	}
}

func testSetAttr(t *testing.T, fs vfs.FileSystem) {
	mustCreate(t, fs, "/attr").Close()
	mode := vfs.FileMode(0o600)
	size := int64(5000)
	mt := int64(42)
	mtd := durOf(mt)
	if err := fs.SetAttr("/attr", vfs.SetAttr{Mode: &mode, Size: &size, ModTime: &mtd}); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.Stat("/attr")
	if fi.Mode.Perm() != 0o600 || fi.Size != 5000 || fi.ModTime != mtd {
		t.Fatalf("SetAttr not applied: %+v", fi)
	}
	if err := fs.SetAttr("/ghost", vfs.SetAttr{Mode: &mode}); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("SetAttr missing err = %v", err)
	}
}

func testStatfs(t *testing.T, fs vfs.FileSystem) {
	s0, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if s0.Capacity <= 0 || s0.Available > s0.Capacity {
		t.Fatalf("statfs = %+v", s0)
	}
	f := mustCreate(t, fs, "/big")
	mustWrite(t, f, make([]byte, 1<<20), 0)
	f.Close()
	s1, _ := fs.Statfs()
	if s1.Used <= s0.Used {
		t.Fatalf("Used did not grow: %d -> %d", s0.Used, s1.Used)
	}
	if s1.Files != s0.Files+1 {
		t.Fatalf("Files = %d, want %d", s1.Files, s0.Files+1)
	}
	if s1.Available+s1.Used != s1.Capacity {
		t.Fatalf("accounting broken: %+v", s1)
	}
}

func testTimestamps(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/ts")
	defer f.Close()
	fi0, _ := f.Stat()
	mustWrite(t, f, []byte("x"), 0)
	fi1, _ := f.Stat()
	if fi1.ModTime < fi0.ModTime {
		t.Fatalf("mtime went backwards: %v -> %v", fi0.ModTime, fi1.ModTime)
	}
	if fi1.ModTime == 0 {
		t.Fatal("mtime never set")
	}
	buf := make([]byte, 1)
	f.ReadAt(buf, 0)
	fi2, _ := f.Stat()
	if fi2.ATime < fi1.ATime {
		t.Fatal("atime went backwards")
	}
}

func testClosedHandle(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/c")
	f.Close()
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("write on closed err = %v", err)
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("read on closed err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, vfs.ErrClosed) {
		t.Fatalf("sync on closed err = %v", err)
	}
}

func testManyFiles(t *testing.T, fs vfs.FileSystem) {
	fs.Mkdir("/many")
	const n = 100
	for i := 0; i < n; i++ {
		f := mustCreate(t, fs, fmt.Sprintf("/many/f%03d", i))
		mustWrite(t, f, []byte(fmt.Sprintf("content-%d", i)), 0)
		f.Close()
	}
	ents, err := fs.ReadDir("/many")
	if err != nil || len(ents) != n {
		t.Fatalf("ReadDir: %d entries, %v", len(ents), err)
	}
	for i := 0; i < n; i += 17 {
		f, err := fs.Open(fmt.Sprintf("/many/f%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("content-%d", i)
		if got := mustRead(t, f, len(want), 0); string(got) != want {
			t.Fatalf("file %d = %q", i, got)
		}
		f.Close()
	}
}

// testRandomizedIO cross-checks a random write/read/truncate/punch sequence
// against an in-memory reference model.
func testRandomizedIO(t *testing.T, fs vfs.FileSystem) {
	const space = 1 << 18 // 256 KiB model
	f := mustCreate(t, fs, "/rand")
	defer f.Close()
	model := make([]byte, 0, space)
	rng := rand.New(rand.NewSource(1234))

	grow := func(n int64) {
		for int64(len(model)) < n {
			model = append(model, 0)
		}
	}
	for op := 0; op < 300; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // write
			off := int64(rng.Intn(space / 2))
			n := rng.Intn(space/8) + 1
			data := make([]byte, n)
			rng.Read(data)
			mustWrite(t, f, data, off)
			grow(off + int64(n))
			copy(model[off:], data)
		case 6, 7: // read & verify
			off := int64(rng.Intn(space))
			n := rng.Intn(space / 4)
			if n == 0 {
				continue
			}
			buf := make([]byte, n)
			got, err := f.ReadAt(buf, off)
			if err != nil && !errors.Is(err, io.EOF) {
				t.Fatalf("op %d: read: %v", op, err)
			}
			wantN := int64(len(model)) - off
			if wantN < 0 {
				wantN = 0
			}
			if wantN > int64(n) {
				wantN = int64(n)
			}
			if int64(got) != wantN {
				t.Fatalf("op %d: read %d bytes, want %d", op, got, wantN)
			}
			if !bytes.Equal(buf[:got], model[off:off+int64(got)]) {
				t.Fatalf("op %d: read mismatch at %d", op, off)
			}
		case 8: // truncate
			n := int64(rng.Intn(space))
			if err := f.Truncate(n); err != nil {
				t.Fatalf("op %d: truncate: %v", op, err)
			}
			if n <= int64(len(model)) {
				model = model[:n]
			} else {
				grow(n)
			}
		case 9: // punch
			if len(model) == 0 {
				continue
			}
			off := int64(rng.Intn(len(model)))
			n := int64(rng.Intn(space / 8))
			if err := f.PunchHole(off, n); err != nil {
				t.Fatalf("op %d: punch: %v", op, err)
			}
			end := off + n
			if end > int64(len(model)) {
				end = int64(len(model))
			}
			for i := off; i < end; i++ {
				model[i] = 0
			}
		}
		if fi, _ := f.Stat(); fi.Size != int64(len(model)) {
			t.Fatalf("op %d: size %d, model %d", op, fi.Size, len(model))
		}
	}
	// Final full verification.
	if len(model) > 0 {
		got := mustRead(t, f, len(model), 0)
		if !bytes.Equal(got, model) {
			t.Fatal("final state mismatch")
		}
	}
}

func seqBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// Additional contract behaviors appended to the suite.

func testDeepPaths(t *testing.T, fs vfs.FileSystem) {
	path := ""
	for i := 0; i < 12; i++ {
		path += fmt.Sprintf("/d%d", i)
		if err := fs.Mkdir(path); err != nil {
			t.Fatalf("mkdir %s: %v", path, err)
		}
	}
	f := mustCreate(t, fs, path+"/leaf")
	defer f.Close()
	mustWrite(t, f, []byte("deep"), 0)
	got := mustRead(t, f, 4, 0)
	if string(got) != "deep" {
		t.Fatalf("deep leaf = %q", got)
	}
	ents, err := fs.ReadDir(path)
	if err != nil || len(ents) != 1 {
		t.Fatalf("deep readdir: %v, %v", ents, err)
	}
}

func testMessyPathsNormalize(t *testing.T, fs vfs.FileSystem) {
	fs.Mkdir("/dir")
	f := mustCreate(t, fs, "/dir/../dir//file")
	mustWrite(t, f, []byte("norm"), 0)
	f.Close()
	g, err := fs.Open("//dir/./file")
	if err != nil {
		t.Fatalf("normalized open: %v", err)
	}
	defer g.Close()
	if got := mustRead(t, g, 4, 0); string(got) != "norm" {
		t.Fatalf("normalized read = %q", got)
	}
	if fi, err := fs.Stat("/dir/sub/../file"); err != nil || fi.Path != "/dir/file" {
		t.Fatalf("normalized stat = %+v, %v", fi, err)
	}
}

func testEmptyFileSync(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/empty")
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync of empty file: %v", err)
	}
	exts, err := f.Extents()
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 0 {
		t.Fatalf("empty file has extents: %+v", exts)
	}
	fi, _ := f.Stat()
	if fi.Size != 0 || fi.Blocks != 0 {
		t.Fatalf("empty file info: %+v", fi)
	}
}

func testHeavilyFragmentedFile(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/frag")
	defer f.Close()
	// Write every other 4 KiB block, then fill the gaps in reverse order.
	const blocks = 64
	blk := func(i int, c byte) []byte { return bytes.Repeat([]byte{c}, 4096) }
	for i := 0; i < blocks; i += 2 {
		mustWrite(t, f, blk(i, byte(i+1)), int64(i)*4096)
	}
	for i := blocks - 1; i >= 1; i -= 2 {
		mustWrite(t, f, blk(i, byte(i+1)), int64(i)*4096)
	}
	got := mustRead(t, f, blocks*4096, 0)
	for i := 0; i < blocks; i++ {
		if got[i*4096] != byte(i+1) || got[i*4096+4095] != byte(i+1) {
			t.Fatalf("block %d corrupted in fragmented file", i)
		}
	}
	exts, err := f.Extents()
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 || exts[0].Len != blocks*4096 {
		t.Fatalf("fragmented file extents = %+v, want one fully merged run", exts)
	}
}

func testWriteAtNegativeOffset(t *testing.T, fs vfs.FileSystem) {
	f := mustCreate(t, fs, "/neg")
	defer f.Close()
	if _, err := f.WriteAt([]byte("x"), -5); err == nil {
		t.Fatal("negative-offset write accepted")
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, -5); err == nil {
		t.Fatal("negative-offset read accepted")
	}
}
