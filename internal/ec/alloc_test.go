package ec

import (
	"bytes"
	"runtime"
	"testing"

	"muxfs/internal/race"
)

// allocPerOp returns the heap bytes op allocates per call once warm: the
// least average over several windows of n calls. A node's journal record
// queue grows by doubling, now and then, until its group commit; the
// minimum leaves that amortized growth, which lands in one window, out.
func allocPerOp(n int, op func()) float64 {
	for i := 0; i < n; i++ {
		op()
	}
	best := -1.0
	for w := 0; w < 5; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(n); best < 0 || got < best {
			best = got
		}
	}
	return best
}

// Healthy stripe I/O draws every batch buffer from the process pool: a
// 1 MiB read, a 1 MiB full-stripe write and a 4 KiB delta write each
// allocate under 1 KiB per op once the pool is warm, against the
// megabytes of shard scratch each one moves.
func TestStripeAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ss, _ := newSet(t, 2, 1, DefaultShardSize)
	f, err := ss.Create("/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const size = 1 << 20
	data := bytes.Repeat([]byte{0x3C}, size)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	small := bytes.Repeat([]byte{0x7E}, 4096)
	const budget = 1024
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"1 MiB read", func() error { _, err := f.ReadAt(buf, 0); return err }},
		{"1 MiB full-stripe write", func() error { _, err := f.WriteAt(data, 0); return err }},
		{"4 KiB delta write", func() error { _, err := f.WriteAt(small, DefaultShardSize+8192); return err }},
	} {
		var opErr error
		got := allocPerOp(20, func() {
			if err := c.op(); err != nil && opErr == nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", c.name, opErr)
		}
		t.Logf("%s: %.0f B allocated per op", c.name, got)
		if got > budget {
			t.Errorf("%s: %.0f B allocated per op, want under %d", c.name, got, budget)
		}
	}
}
