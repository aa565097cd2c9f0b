package fsbase_test

import (
	"bytes"
	"errors"
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

func crashableNatives(t *testing.T) map[string]native {
	t.Helper()
	nv, err := novafs.New("nova@pmem0", device.New(device.PMProfile("pmem0"), simclock.New()), novafs.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	xfs, err := xfslite.New("xfs@ssd0", device.New(device.SSDProfile("ssd0"), simclock.New()))
	if err != nil {
		t.Fatal(err)
	}
	hdd := device.HDDProfile("hdd0")
	hdd.Capacity = 1 << 30
	ext, err := extlite.New("ext4@hdd0", device.New(hdd, simclock.New()))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]native{"novafs": nv, "xfslite": xfs, "extlite": ext}
}

// A Remove or Rename whose log commit fails is undone: the op returns the
// error, and the names resolve as before with their bytes, live and after
// a crash and Recover. novafs commits synchronously, so there every op
// fails. xfslite and extlite queue records for group commit, which takes
// them whatever the device does: there the op succeeds live and, never
// committed, is gone after the crash. Either way the synced state comes
// back.
func TestFailedCommitUndoesRemoveAndRename(t *testing.T) {
	a, b := bytes.Repeat([]byte("alpha"), 2000), bytes.Repeat([]byte("bravo"), 1000)
	for _, o := range []struct {
		name        string
		op          func(vfs.FileSystem) error
		gone, there string // the name a taken op removes, and the one it creates
	}{
		{"remove file", func(fs vfs.FileSystem) error { return fs.Remove("/d/a") }, "/d/a", ""},
		{"remove dir", func(fs vfs.FileSystem) error { return fs.Remove("/empty") }, "/empty", ""},
		{"rename file", func(fs vfs.FileSystem) error { return fs.Rename("/b", "/c") }, "/b", "/c"},
		{"rename dir", func(fs vfs.FileSystem) error { return fs.Rename("/d", "/e") }, "/d/a", "/e/a"},
	} {
		for name, fs := range crashableNatives(t) {
			t.Run(o.name+"/"+name, func(t *testing.T) {
				for _, d := range []string{"/d", "/empty"} {
					if err := fs.Mkdir(d); err != nil {
						t.Fatal(err)
					}
				}
				for p, data := range map[string][]byte{"/d/a": a, "/b": b} {
					f, err := fs.Create(p)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.WriteAt(data, 0); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}

				fs.Device().InjectFailure(true)
				err := o.op(fs)
				if name == "novafs" && err == nil {
					t.Fatal("op succeeded on a failed device; novafs commits synchronously")
				}
				fs.Device().InjectFailure(false)
				check := func(when string, undone bool) {
					t.Helper()
					want := map[string][]byte{"/d/a": a, "/b": b, "/empty": nil}
					if !undone {
						moved := want[o.gone]
						delete(want, o.gone)
						if o.there != "" {
							want[o.there] = moved
						}
					}
					for _, p := range []string{"/d/a", "/b", "/c", "/e/a", "/empty"} {
						data, ok := want[p]
						fi, err := fs.Stat(p)
						if !ok {
							if !errors.Is(err, vfs.ErrNotExist) {
								t.Fatalf("%s: %s resolves (%v), want it absent", when, p, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: %s: %v", when, p, err)
						}
						if fi.IsDir() {
							continue
						}
						f, err := fs.Open(p)
						if err != nil {
							t.Fatalf("%s: %s: %v", when, p, err)
						}
						got := make([]byte, len(data))
						if _, err := f.ReadAt(got, 0); err != nil {
							t.Fatalf("%s: read %s: %v", when, p, err)
						}
						f.Close()
						if !bytes.Equal(got, data) {
							t.Fatalf("%s: %s lost its bytes", when, p)
						}
					}
					if err := fs.CheckConsistency(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				check("live", err != nil)
				fs.Crash()
				if err := fs.Recover(); err != nil {
					t.Fatal(err)
				}
				check("after recovery", true)
			})
		}
	}
}
