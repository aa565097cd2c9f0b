package fsbase_test

import (
	"fmt"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/simclock"
)

// novafsWithFiles mounts a novafs holding files files in 16 directories,
// every tenth with a page of data, so its snapshot has directory, create,
// attribute and extent records.
func novafsWithFiles(t testing.TB, files int) *novafs.FS {
	prof := device.PMProfile("pmem0")
	prof.Capacity = 128 << 20 // an 8 MiB journal: 4 MiB halves
	fs, err := novafs.New("nova@pmem0", device.New(prof, simclock.New()), novafs.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 16; d++ {
		if err := fs.Mkdir(fmt.Sprintf("/dir%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	page := make([]byte, 4096)
	for i := 0; i < files; i++ {
		f, err := fs.Create(fmt.Sprintf("/dir%d/file%05d", i%16, i))
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if _, err := f.WriteAt(page, 0); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
	}
	return fs
}

// A novafs compaction's heap allocations do not grow with the namespace:
// the walk reuses its path and name scratch, each record's payload is
// staged in one reused buffer, and records encode onto arena pages. So a
// snapshot of 10,000 files makes as many allocations as one of 1,000.
func TestCompactionAllocationsFlat(t *testing.T) {
	allocs := func(files int) float64 {
		fs := novafsWithFiles(t, files)
		compact := func() {
			if err := fs.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		// Write both journal halves once, so the device model's first
		// touch of a page is not counted.
		compact()
		compact()
		return testing.AllocsPerRun(4, compact)
	}
	small, large := allocs(1000), allocs(10000)
	if small != large || large != 0 {
		t.Fatalf("novafs compaction: %.1f allocations at 1,000 files, %.1f at 10,000, want 0 at both", small, large)
	}
}
