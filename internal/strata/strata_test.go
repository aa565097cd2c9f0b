package strata

import (
	"bytes"
	"errors"
	"testing"

	"muxfs/internal/device"
	"muxfs/internal/fstest"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	clk := simclock.New()
	fs, err := New(Config{
		Name:  "strata",
		PM:    device.New(device.PMProfile("pm0"), clk),
		SSD:   device.New(device.SSDProfile("ssd0"), clk),
		HDD:   device.New(device.HDDProfile("hdd0"), clk),
		Costs: DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem { return newFS(t) })
}

func TestWritesLandInLogFirst(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("/logged")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ssdBefore := fs.Device(device.SSD).Stats()
	hddBefore := fs.Device(device.HDD).Stats()
	if _, err := f.WriteAt(make([]byte, 64*1024), 0); err != nil {
		t.Fatal(err)
	}
	used, size := fs.LogUsage()
	if used == 0 || used > size {
		t.Fatalf("log usage = %d/%d after write", used, size)
	}
	if d := fs.Device(device.SSD).Stats().Sub(ssdBefore); d.Writes != 0 {
		t.Fatalf("write touched SSD before digest: %+v", d)
	}
	if d := fs.Device(device.HDD).Stats().Sub(hddBefore); d.Writes != 0 {
		t.Fatalf("write touched HDD before digest: %+v", d)
	}
}

func TestDigestMovesDataToPlacementTier(t *testing.T) {
	clk := simclock.New()
	pm := device.New(device.PMProfile("pm0"), clk)
	ssd := device.New(device.SSDProfile("ssd0"), clk)
	hdd := device.New(device.HDDProfile("hdd0"), clk)
	fs, err := New(Config{
		Name: "strata", PM: pm, SSD: ssd, HDD: hdd, Costs: DefaultCosts(),
		Placement: func(string, uint64, int64, int64) device.Class { return device.SSD },
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/to-ssd")
	defer f.Close()
	payload := bytes.Repeat([]byte{0x5A}, 128*1024)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Digest(); err != nil {
		t.Fatal(err)
	}
	used, _ := fs.LogUsage()
	if used != 0 {
		t.Fatalf("log not drained after digest: %d", used)
	}
	usage := fs.TierUsage()
	if usage[device.SSD] < int64(len(payload)) {
		t.Fatalf("SSD usage %d after digesting %d bytes", usage[device.SSD], len(payload))
	}
	// Data still reads back correctly from its final tier.
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("digest corrupted data")
	}
}

func TestDigestWriteAmplification(t *testing.T) {
	// The digested bytes hitting the SSD must exceed the user bytes (log
	// header + per-block metadata model): check device counters.
	clk := simclock.New()
	pm := device.New(device.PMProfile("pm0"), clk)
	ssd := device.New(device.SSDProfile("ssd0"), clk)
	hdd := device.New(device.HDDProfile("hdd0"), clk)
	fs, _ := New(Config{
		Name: "strata", PM: pm, SSD: ssd, HDD: hdd, Costs: DefaultCosts(),
		Placement: func(string, uint64, int64, int64) device.Class { return device.SSD },
	})
	f, _ := fs.Create("/amp")
	defer f.Close()
	const user = 256 * 1024
	f.WriteAt(make([]byte, user), 0)
	fs.Digest()
	pmStats := pm.Stats()
	// Every user byte was written to PM (log) AND read back out of PM.
	if pmStats.BytesWritten < user {
		t.Fatalf("PM log wrote %d bytes for %d user bytes", pmStats.BytesWritten, user)
	}
	if pmStats.BytesRead < user {
		t.Fatalf("digest read %d bytes from PM log, want >= %d", pmStats.BytesRead, user)
	}
	if ssd.Stats().BytesWritten < user {
		t.Fatalf("SSD got %d bytes", ssd.Stats().BytesWritten)
	}
}

func TestMigrationMatrix(t *testing.T) {
	fs := newFS(t)
	cases := []struct {
		src, dst device.Class
		ok       bool
	}{
		{device.PM, device.SSD, true},
		{device.PM, device.HDD, true},
		{device.SSD, device.PM, false},
		{device.SSD, device.HDD, false},
		{device.HDD, device.PM, false},
		{device.HDD, device.SSD, false},
	}
	for _, c := range cases {
		if got := fs.SupportsMigration(c.src, c.dst); got != c.ok {
			t.Errorf("SupportsMigration(%s,%s) = %v, want %v", c.src, c.dst, got, c.ok)
		}
	}
	if _, err := fs.Migrate("/x", device.SSD, device.HDD); !errors.Is(err, ErrUnsupportedPath) {
		t.Fatalf("unwired migration err = %v", err)
	}
}

func TestMigratePMToSSD(t *testing.T) {
	clk := simclock.New()
	pm := device.New(device.PMProfile("pm0"), clk)
	ssd := device.New(device.SSDProfile("ssd0"), clk)
	hdd := device.New(device.HDDProfile("hdd0"), clk)
	fs, _ := New(Config{
		Name: "strata", PM: pm, SSD: ssd, HDD: hdd, Costs: DefaultCosts(),
		Placement: func(string, uint64, int64, int64) device.Class { return device.PM },
	})
	f, _ := fs.Create("/mv")
	defer f.Close()
	payload := bytes.Repeat([]byte{7}, 64*1024)
	f.WriteAt(payload, 0)

	moved, err := fs.Migrate("/mv", device.PM, device.SSD)
	if err != nil {
		t.Fatal(err)
	}
	if moved != int64(len(payload)) {
		t.Fatalf("moved %d bytes, want %d", moved, len(payload))
	}
	usage := fs.TierUsage()
	if usage[device.PM] != 0 {
		t.Fatalf("PM still holds %d bytes after migration", usage[device.PM])
	}
	got := make([]byte, len(payload))
	f.ReadAt(got, 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("migration corrupted data")
	}
}

func TestMigrateMissingFile(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Migrate("/ghost", device.PM, device.SSD); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestLogWrapsViaDigest(t *testing.T) {
	// Writing more than the log can hold must auto-digest, not fail.
	clk := simclock.New()
	prof := device.PMProfile("pm0")
	prof.Capacity = 16 << 20 // 4 MiB log
	pm := device.New(prof, clk)
	ssd := device.New(device.SSDProfile("ssd0"), clk)
	hdd := device.New(device.HDDProfile("hdd0"), clk)
	fs, _ := New(Config{Name: "strata", PM: pm, SSD: ssd, HDD: hdd, Costs: DefaultCosts()})
	f, _ := fs.Create("/huge")
	defer f.Close()
	payload := bytes.Repeat([]byte{3}, 10<<20) // 10 MiB > log
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted across log wrap")
	}
}

func TestPartialOverwriteThenDigest(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Create("/ov")
	defer f.Close()
	f.WriteAt(bytes.Repeat([]byte{'a'}, 8192), 0)
	f.WriteAt(bytes.Repeat([]byte{'b'}, 100), 4000) // straddles both pages
	fs.Digest()
	got := make([]byte, 8192)
	f.ReadAt(got, 0)
	for i := range got {
		want := byte('a')
		if i >= 4000 && i < 4100 {
			want = 'b'
		}
		if got[i] != want {
			t.Fatalf("byte %d = %c, want %c", i, got[i], want)
		}
	}
}

func TestConcurrency(t *testing.T) {
	fstest.RunConcurrency(t, func(t *testing.T) vfs.FileSystem { return newFS(t) })
}

// TestDigestPlacementSeesRenamedPaths renames a file and then the directory
// holding another, with their data still in the log: digest must hand the
// placement each file's path after the renames, not the one it was written
// under.
func TestDigestPlacementSeesRenamedPaths(t *testing.T) {
	clk := simclock.New()
	seen := map[string]bool{}
	fs, err := New(Config{
		Name: "strata", Costs: DefaultCosts(),
		PM:  device.New(device.PMProfile("pm0"), clk),
		SSD: device.New(device.SSDProfile("ssd0"), clk),
		HDD: device.New(device.HDDProfile("hdd0"), clk),
		Placement: func(path string, _ uint64, _, _ int64) device.Class {
			seen[path] = true
			return device.SSD
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/d", "/d/sub"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/d/sub/x", "/f"} {
		f, err := fs.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 3*PageSize), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := fs.Rename("/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d", "/e"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Digest(); err != nil {
		t.Fatal(err)
	}
	if !seen["/e/sub/x"] || !seen["/e/g"] || len(seen) != 2 {
		t.Fatalf("placement saw %v, want /e/sub/x and /e/g", seen)
	}
}
