package bench

import (
	"fmt"
	"time"

	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// E3Row is one device's read-latency comparison (§3.2).
type E3Row struct {
	Device      string
	NativeNs    float64
	MuxNs       float64
	OverheadPct float64 // paper: +52.4% PM, +87.3% SSD, +6.6% HDD
}

// E3Result reproduces the §3.2 worst-case read-latency experiment: random
// single-byte reads from a large file, native FS vs the same FS under Mux.
type E3Result struct {
	Rows [3]E3Row
}

// RunE3 measures average 1-byte random-read latency on each device.
func RunE3() (*E3Result, error) {
	res := &E3Result{}
	for i := 0; i < 3; i++ {
		native, err := nativeReadLatency(i)
		if err != nil {
			return nil, fmt.Errorf("E3 native %s: %w", TierName[i], err)
		}
		mux, err := muxReadLatency(i)
		if err != nil {
			return nil, fmt.Errorf("E3 mux %s: %w", TierName[i], err)
		}
		res.Rows[i] = E3Row{
			Device:      TierName[i],
			NativeNs:    float64(native.Nanoseconds()),
			MuxNs:       float64(mux.Nanoseconds()),
			OverheadPct: 100 * (float64(mux-native) / float64(native)),
		}
	}
	return res, nil
}

// Check holds E3 to §3.2: the indirection's worst-case overhead is large
// on the fast cached paths (paper: +52.4% PM, +87.3% SSD) and small on the
// slow software path (+6.6% HDD), ordered SSD > PM > HDD.
func (r *E3Result) Check(Gates) error {
	var v verdict
	pm, ssd, hdd := r.Rows[0].OverheadPct, r.Rows[1].OverheadPct, r.Rows[2].OverheadPct
	v.require(ssd > pm && pm > hdd, "overhead ordering = %.1f/%.1f/%.1f, want SSD > PM > HDD", pm, ssd, hdd)
	v.require(pm >= 30 && pm <= 80, "PM overhead %.1f%%, want near +52.4%%", pm)
	v.require(ssd >= 60 && ssd <= 120, "SSD overhead %.1f%%, want near +87.3%%", ssd)
	v.require(hdd >= 2 && hdd <= 15, "HDD overhead %.1f%%, want near +6.6%%", hdd)
	return v.err()
}

// prepReadFile fills and cache-warms a file, returning it ready to measure.
func prepReadFile(f vfs.File) error {
	if err := seqFill(f, e3FileSize, 5); err != nil {
		return err
	}
	// Warm the page caches (the paper's 10 GB file is cache-resident in
	// its 256 GB testbed after the benchmark's own warm-up pass).
	return warmReads(f, e3FileSize)
}

func nativeReadLatency(tier int) (time.Duration, error) {
	s, err := newStack(paperSpec(nil))
	if err != nil {
		return 0, err
	}
	f, err := s.fses[tier].Create("/readfile")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := prepReadFile(f); err != nil {
		return 0, err
	}
	return randomReads1B(s.clk.Now, f, e3FileSize, e3Reads, 99)
}

func muxReadLatency(tier int) (time.Duration, error) {
	s, err := newStack(paperSpec(policy.Pinned{Tier: tier}))
	if err != nil {
		return 0, err
	}
	f, err := s.mux.Create("/readfile")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := prepReadFile(f); err != nil {
		return 0, err
	}
	return randomReads1B(s.clk.Now, f, e3FileSize, e3Reads, 99)
}
