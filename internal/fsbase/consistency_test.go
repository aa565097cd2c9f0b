package fsbase_test

import (
	"strings"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fs/extlite"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/fsbase"
	"muxfs/internal/simclock"
)

// natives mounts a fresh novafs, xfslite and extlite and returns the
// shared half of each.
func natives(t *testing.T) map[string]*fsbase.FS {
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
	return map[string]*fsbase.FS{"novafs": &nv.FS, "xfslite": &xfs.FS, "extlite": &ext.FS}
}

// TestCheckConsistencyCatchesNamespaceDrift breaks the link between the
// namespace and the inode table each way and wants CheckConsistency to
// report it: an inode that no entry names (what a directory renamed into
// its own subtree leaves behind), and a file entry whose inode is gone.
func TestCheckConsistencyCatchesNamespaceDrift(t *testing.T) {
	for _, c := range []struct {
		name  string
		drift func(b *fsbase.FS)
		want  string
	}{
		{"inode without entry", func(b *fsbase.FS) { b.NS.Remove("/d/f", nil) }, "no namespace entry"},
		{"entry without inode", func(b *fsbase.FS) {
			e, _ := b.NS.Lookup("/d/f")
			delete(b.Inodes, e.Ino)
		}, "/d/f names inode"},
	} {
		for name, fs := range natives(t) {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				if err := fs.Mkdir("/d"); err != nil {
					t.Fatal(err)
				}
				f, err := fs.Create("/d/f")
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
				if err := fs.CheckConsistency(); err != nil {
					t.Fatalf("consistent state reported: %v", err)
				}
				c.drift(fs)
				if err := fs.CheckConsistency(); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("CheckConsistency = %v, want an error naming %q", err, c.want)
				}
			})
		}
	}
}
