package bench

import (
	"testing"
	"time"

	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

func TestMbps(t *testing.T) {
	if got := mbps(1<<20, time.Second); got != 1 {
		t.Fatalf("1 MiB in 1 s = %v MB/s", got)
	}
	if got := mbps(10<<20, 500*time.Millisecond); got != 20 {
		t.Fatalf("10 MiB in 0.5 s = %v MB/s", got)
	}
	if got := mbps(123, 0); got != 0 {
		t.Fatalf("zero duration = %v", got)
	}
}

func TestZipfOffsetsSkewAndAlignment(t *testing.T) {
	const fileSize = 1 << 20
	offs := zipfOffsets(fileSize, 4096, 5000, 42)
	if len(offs) != 5000 {
		t.Fatalf("len = %d", len(offs))
	}
	counts := map[int64]int{}
	for _, off := range offs {
		if off%4096 != 0 || off < 0 || off >= fileSize {
			t.Fatalf("bad offset %d", off)
		}
		counts[off]++
	}
	// Zipfian skew: the hottest block should dominate a uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := 5000 / int(fileSize/4096)
	if max < 5*uniform {
		t.Fatalf("hottest block hit %d times; no skew (uniform share %d)", max, uniform)
	}
	// Determinism per seed.
	again := zipfOffsets(fileSize, 4096, 5000, 42)
	for i := range offs {
		if offs[i] != again[i] {
			t.Fatal("zipfOffsets not deterministic for a fixed seed")
		}
	}
}

func TestWorkloadRoundTrips(t *testing.T) {
	s, err := newStack(paperSpec(policy.Pinned{Tier: 0}))
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.mux.Create("/w")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := seqFill(f, 256<<10, 3); err != nil {
		t.Fatal(err)
	}
	if err := randomWrites(f, 256<<10, 64<<10, 4096, 1); err != nil {
		t.Fatal(err)
	}
	if err := warmReads(f, 256<<10); err != nil {
		t.Fatal(err)
	}
	lat, err := randomReads1B(s.clk.Now, f, 256<<10, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("latency = %v", lat)
	}
}

func TestStackBuilders(t *testing.T) {
	n, err := newStack(paperSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, fs := range n.fses {
		if fs == nil {
			t.Fatalf("native FS %d nil", i)
		}
	}
	if got := n.devs[2].Capacity(); got != 2<<30 {
		t.Fatalf("paper stack HDD capacity = %d, want 2 GiB", got)
	}
	var govs slowTiers
	g, err := newStack(stackSpec{caps: [3]int64{0: 64 << 20}, metaCap: 1 << 30, govern: govs.govern})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.devs[0].Capacity(); got != 64<<20 {
		t.Fatalf("PM capacity override = %d, want 64 MiB", got)
	}
	if g.meta == nil || g.meta.Capacity() != 1<<30 {
		t.Fatal("metadata device missing or mis-sized")
	}
	for i := range g.fses {
		if g.fses[i] != vfs.FileSystem(govs[i]) {
			t.Fatalf("tier %d is not mounted behind its governor", i)
		}
	}
	st, err := NewStrataStack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.FS == nil {
		t.Fatal("strata nil")
	}
	if classOf(0).String() != "PM" || classOf(1).String() != "SSD" || classOf(2).String() != "HDD" {
		t.Fatal("classOf mapping wrong")
	}
}
