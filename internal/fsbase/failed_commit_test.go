package fsbase_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fs/extlite"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// native is a mounted native file system with its device and crash hooks.
type native interface {
	vfs.FileSystem
	vfs.CrashRecoverer
	Device() *device.Device
	CheckConsistency() error
}

// mountNative mounts a fresh native file system of the named kind.
func mountNative(t *testing.T, kind string) native {
	t.Helper()
	var fs native
	var err error
	switch kind {
	case "novafs":
		fs, err = novafs.New("nova@pmem0", device.New(device.PMProfile("pmem0"), simclock.New()), novafs.DefaultCosts())
	case "xfslite":
		fs, err = xfslite.New("xfs@ssd0", device.New(device.SSDProfile("ssd0"), simclock.New()))
	case "extlite":
		hdd := device.HDDProfile("hdd0")
		hdd.Capacity = 1 << 30
		fs, err = extlite.New("ext4@hdd0", device.New(hdd, simclock.New()))
	}
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// nameState is what a file system shows of one name: its mode, and for a
// file its size, mapped bytes and contents.
type nameState struct {
	Mode         vfs.FileMode
	Size, Blocks int64
	Data         string
}

// fsState walks the whole namespace into a map from path to nameState.
func fsState(t *testing.T, fs vfs.FileSystem) map[string]nameState {
	t.Helper()
	out := map[string]nameState{}
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", dir, err)
		}
		for _, e := range ents {
			p := dir + e.Name
			if dir != "/" {
				p = dir + "/" + e.Name
			}
			fi, err := fs.Stat(p)
			if err != nil {
				t.Fatalf("Stat(%s): %v", p, err)
			}
			st := nameState{Mode: fi.Mode}
			if e.IsDir {
				walk(p)
			} else {
				st.Size, st.Blocks = fi.Size, fi.Blocks
				f, err := fs.Open(p)
				if err != nil {
					t.Fatalf("Open(%s): %v", p, err)
				}
				data := make([]byte, fi.Size)
				if n, err := f.ReadAt(data, 0); n != len(data) || (err != nil && !errors.Is(err, io.EOF)) {
					t.Fatalf("read %s: %d of %d bytes, %v", p, n, len(data), err)
				}
				f.Close()
				st.Data = string(data)
			}
			out[p] = st
		}
	}
	walk("/")
	return out
}

// faultTableSetup gives a fresh mount its synced starting state: two
// directories, files with bytes, and /h, whose pages [4 KiB, 16 KiB) are
// a hole.
func faultTableSetup(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	for _, d := range []string{"/d", "/empty"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []struct {
		path string
		off  int64
		data []byte
	}{
		{"/d/a", 0, bytes.Repeat([]byte("alpha"), 2000)},
		{"/b", 0, bytes.Repeat([]byte("bravo"), 1000)},
		{"/f", 0, bytes.Repeat([]byte("fox12"), 4000)},
		{"/h", 0, bytes.Repeat([]byte{0x48}, 4096)},
		{"/h", 16384, bytes.Repeat([]byte{0x68}, 4096)},
	} {
		f, err := fs.Open(w.path)
		if errors.Is(err, vfs.ErrNotExist) {
			f, err = fs.Create(w.path)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(w.data, w.off); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}

// onFile runs op on an open handle of path.
func onFile(path string, op func(vfs.File) error) func(vfs.FileSystem) error {
	return func(fs vfs.FileSystem) error {
		f, err := fs.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return op(f)
	}
}

// TestFailedCommitUndoesRemoveAndRename is the fault table of the native
// file systems: every op runs once on a device that fails every request.
// An op that fails leaves no trace: the live state, the state after a
// crash and Recover, and the state before the op are equal — names,
// modes, sizes, mapped bytes and contents — and CheckConsistency passes
// on each. novafs commits synchronously, so there every op fails.
// xfslite and extlite queue records for group commit, which takes them
// whatever the device does, so an op that writes nothing to the device
// succeeds live, reads as the same op on a healthy twin, and, never
// committed, is gone after the crash. Ops that copy a ragged edge page
// write the device and fail everywhere.
func TestFailedCommitUndoesRemoveAndRename(t *testing.T) {
	mode, size := vfs.FileMode(0o600), int64(8192)
	for _, o := range []struct {
		name string
		edge bool // copies a ragged edge page onto a fresh block
		op   func(vfs.FileSystem) error
	}{
		{"create", false, func(fs vfs.FileSystem) error {
			f, err := fs.Create("/d/n")
			if err == nil {
				f.Close()
			}
			return err
		}},
		{"mkdir", false, func(fs vfs.FileSystem) error { return fs.Mkdir("/d/sub") }},
		{"remove file", false, func(fs vfs.FileSystem) error { return fs.Remove("/d/a") }},
		{"remove dir", false, func(fs vfs.FileSystem) error { return fs.Remove("/empty") }},
		{"rename file", false, func(fs vfs.FileSystem) error { return fs.Rename("/b", "/c") }},
		{"rename dir", false, func(fs vfs.FileSystem) error { return fs.Rename("/d", "/e") }},
		{"setattr mode", false, func(fs vfs.FileSystem) error { return fs.SetAttr("/f", vfs.SetAttr{Mode: &mode}) }},
		{"setattr size", false, func(fs vfs.FileSystem) error { return fs.SetAttr("/f", vfs.SetAttr{Size: &size}) }},
		{"truncate", false, func(fs vfs.FileSystem) error { return fs.Truncate("/f", 8192) }},
		{"truncate ragged", true, func(fs vfs.FileSystem) error { return fs.Truncate("/f", 10000) }},
		{"punch aligned", false, onFile("/f", func(f vfs.File) error { return f.PunchHole(4096, 8192) })},
		{"punch ragged", true, onFile("/f", func(f vfs.File) error { return f.PunchHole(100, 3*4096) })},
		{"punch to eof", false, onFile("/f", func(f vfs.File) error { return f.PunchHole(8192, 20000) })},
		{"write overwrite", false, onFile("/f", func(f vfs.File) error {
			_, err := f.WriteAt(bytes.Repeat([]byte{0xEE}, 8192), 0)
			return err
		})},
		{"write into hole", false, onFile("/h", func(f vfs.File) error {
			_, err := f.WriteAt(bytes.Repeat([]byte{0xEE}, 8192), 4096)
			return err
		})},
	} {
		for _, kind := range []string{"novafs", "xfslite", "extlite"} {
			t.Run(o.name+"/"+kind, func(t *testing.T) {
				fs := mountNative(t, kind)
				faultTableSetup(t, fs)
				before := fsState(t, fs)

				fs.Device().InjectFailure(true)
				err := o.op(fs)
				fs.Device().InjectFailure(false)
				if wantErr := kind == "novafs" || o.edge; (err != nil) != wantErr {
					t.Fatalf("op on a failed device returned %v, want an error: %v", err, wantErr)
				}
				want := before
				if err == nil {
					twin := mountNative(t, kind)
					faultTableSetup(t, twin)
					if err := o.op(twin); err != nil {
						t.Fatalf("op on a healthy twin: %v", err)
					}
					want = fsState(t, twin)
				}
				check := func(when string, want map[string]nameState) {
					t.Helper()
					if got := fsState(t, fs); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: state differs:\n%s", when, stateDiff(got, want))
					}
					if err := fs.CheckConsistency(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				check("live", want)
				fs.Crash()
				if err := fs.Recover(); err != nil {
					t.Fatal(err)
				}
				check("after recovery", before)
			})
		}
	}
}

// stateDiff lists the names whose state differs between got and want.
func stateDiff(got, want map[string]nameState) string {
	var b bytes.Buffer
	for p, w := range want {
		g, ok := got[p]
		switch {
		case !ok:
			fmt.Fprintf(&b, "  %s missing\n", p)
		case g != w:
			fmt.Fprintf(&b, "  %s: mode %v size %d mapped %d, want mode %v size %d mapped %d (contents equal: %v)\n",
				p, g.Mode, g.Size, g.Blocks, w.Mode, w.Size, w.Blocks, g.Data == w.Data)
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			fmt.Fprintf(&b, "  %s unexpected\n", p)
		}
	}
	return b.String()
}
