package bench

import (
	"fmt"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/policy"
	"muxfs/internal/simclock"
)

// E1Cell is one source→target entry in the Figure 3a migration matrix.
type E1Cell struct {
	Supported bool
	MBps      float64
}

// E1Result reproduces Figure 3a: migration throughput for all six device
// pairs under Mux and under Strata (which supports only two).
type E1Result struct {
	Mux    [3][3]E1Cell // [src][dst]; diagonal unused
	Strata [3][3]E1Cell
	// SpeedupPMtoSSD is the headline ratio (paper: 2.59×).
	SpeedupPMtoSSD float64
}

// RunE1 measures migration throughput for every device pair.
func RunE1() (*E1Result, error) {
	res := &E1Result{}

	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			mbps, err := muxMigrationMBps(src, dst)
			if err != nil {
				return nil, fmt.Errorf("E1 mux %s->%s: %w", TierName[src], TierName[dst], err)
			}
			res.Mux[src][dst] = E1Cell{Supported: true, MBps: mbps}

			cell, err := strataMigrationCell(src, dst)
			if err != nil {
				return nil, fmt.Errorf("E1 strata %s->%s: %w", TierName[src], TierName[dst], err)
			}
			res.Strata[src][dst] = cell
		}
	}
	if s := res.Strata[0][1].MBps; s > 0 {
		res.SpeedupPMtoSSD = res.Mux[0][1].MBps / s
	}
	return res, nil
}

// muxMigrationMBps stages e1FileSize bytes on tier src and times a full
// migration to dst.
func muxMigrationMBps(src, dst int) (float64, error) {
	s, err := newStack(paperSpec(policy.Pinned{Tier: src}))
	if err != nil {
		return 0, err
	}
	f, err := s.mux.Create("/mig")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := seqFill(f, e1FileSize, 7); err != nil {
		return 0, err
	}

	w := simclock.StartWatch(s.clk)
	moved, err := s.mux.Migrate("/mig", src, dst)
	if err != nil {
		return 0, err
	}
	if moved != e1FileSize {
		return 0, fmt.Errorf("moved %d of %d bytes", moved, int64(e1FileSize))
	}
	return mbps(moved, w.Elapsed()), nil
}

// strataMigrationCell stages data on src inside Strata (possible only for
// PM, its digest source) and times the migration where a path exists.
func strataMigrationCell(src, dst int) (E1Cell, error) {
	srcClass := classOf(src)
	s, err := NewStrataStack(func(string, uint64, int64, int64) device.Class { return srcClass })
	if err != nil {
		return E1Cell{}, err
	}
	if !s.FS.SupportsMigration(classOf(src), classOf(dst)) {
		return E1Cell{Supported: false}, nil
	}
	f, err := s.FS.Create("/mig")
	if err != nil {
		return E1Cell{}, err
	}
	defer f.Close()
	if err := seqFill(f, e1FileSize, 7); err != nil {
		return E1Cell{}, err
	}
	if err := s.FS.Digest(); err != nil { // settle data onto src blocks
		return E1Cell{}, err
	}

	w := simclock.StartWatch(s.Clk)
	moved, err := s.FS.Migrate("/mig", classOf(src), classOf(dst))
	if err != nil {
		return E1Cell{}, err
	}
	if moved != e1FileSize {
		return E1Cell{}, fmt.Errorf("strata moved %d of %d bytes", moved, int64(e1FileSize))
	}
	return E1Cell{Supported: true, MBps: mbps(moved, w.Elapsed())}, nil
}

// Check holds E1 to Figure 3a: Mux supports all six migration paths,
// Strata exactly its two wired ones (PM→SSD, PM→HDD), and Mux's PM→SSD
// migration beats Strata's by a generous band around the paper's 2.59×.
func (r *E1Result) Check(Gates) error {
	var v verdict
	muxPaths, strataPaths := 0, 0
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			if r.Mux[src][dst].Supported {
				muxPaths++
				v.require(r.Mux[src][dst].MBps > 0, "mux %s->%s throughput = %v", TierName[src], TierName[dst], r.Mux[src][dst].MBps)
			}
			if r.Strata[src][dst].Supported {
				strataPaths++
			}
		}
	}
	v.require(muxPaths == 6, "Mux supports %d migration paths, want 6", muxPaths)
	v.require(strataPaths == 2, "Strata supports %d migration paths, want 2", strataPaths)
	v.require(r.Strata[0][1].Supported && r.Strata[0][2].Supported, "Strata's wired paths are not PM->SSD and PM->HDD")
	v.require(r.SpeedupPMtoSSD >= 1.5 && r.SpeedupPMtoSSD <= 5, "PM->SSD speedup = %.2fx, want roughly 2.59x", r.SpeedupPMtoSSD)
	return v.err()
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}
