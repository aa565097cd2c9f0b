package bench

import (
	"fmt"

	"muxfs/internal/device"
	"muxfs/internal/policy"
	"muxfs/internal/simclock"
)

// E2Row is one device's throughput under both systems (Figure 3b).
type E2Row struct {
	Device     string
	StrataMBps float64
	MuxMBps    float64
	Speedup    float64 // Mux / Strata (paper: 1.08 / 1.46 / 1.07)
}

// E2Result reproduces Figure 3b: per-device random-write throughput of
// Strata vs Mux, with requests pinned to the target device.
type E2Result struct {
	Rows [3]E2Row
}

// RunE2 runs the Strata microbenchmark analogue: random 4 KiB writes over a
// preallocated file, all I/O directed at one device, for each device.
func RunE2() (*E2Result, error) {
	res := &E2Result{}
	for i := 0; i < 3; i++ {
		muxT, err := muxDeviceWriteMBps(i)
		if err != nil {
			return nil, fmt.Errorf("E2 mux %s: %w", TierName[i], err)
		}
		strataT, err := strataDeviceWriteMBps(i)
		if err != nil {
			return nil, fmt.Errorf("E2 strata %s: %w", TierName[i], err)
		}
		res.Rows[i] = E2Row{
			Device:     TierName[i],
			StrataMBps: strataT,
			MuxMBps:    muxT,
			Speedup:    muxT / strataT,
		}
	}
	return res, nil
}

// Check holds E2 to Figure 3b: Mux wins on every device (paper: 1.08× /
// 1.46× / 1.07×) with the largest gap on the SSD, and faster devices move
// more data per second.
func (r *E2Result) Check(Gates) error {
	var v verdict
	for _, row := range r.Rows {
		v.require(row.Speedup >= 1.0 && row.Speedup <= 2.5, "%s speedup = %.2fx, want >= 1 and sane", row.Device, row.Speedup)
	}
	v.require(r.Rows[1].Speedup > r.Rows[0].Speedup && r.Rows[1].Speedup > r.Rows[2].Speedup,
		"SSD should show the largest Mux advantage: %.2f/%.2f/%.2f", r.Rows[0].Speedup, r.Rows[1].Speedup, r.Rows[2].Speedup)
	v.require(r.Rows[0].MuxMBps > r.Rows[1].MuxMBps && r.Rows[1].MuxMBps > r.Rows[2].MuxMBps,
		"device-speed ordering broken: %.0f/%.0f/%.0f MB/s", r.Rows[0].MuxMBps, r.Rows[1].MuxMBps, r.Rows[2].MuxMBps)
	return v.err()
}

func muxDeviceWriteMBps(tier int) (float64, error) {
	s, err := newStack(paperSpec(policy.Pinned{Tier: tier}))
	if err != nil {
		return 0, err
	}
	f, err := s.mux.Create("/load")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := seqFill(f, e2FileSize, 3); err != nil {
		return 0, err
	}

	w := simclock.StartWatch(s.clk)
	if err := randomWrites(f, e2FileSize, e2TotalWrite, e2BlockSize, 11); err != nil {
		return 0, err
	}
	// Sync inside the window so write-back reaching the device is part of
	// the sustained cost, matching Strata's in-window digest below.
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return mbps(e2TotalWrite, w.Elapsed()), nil
}

func strataDeviceWriteMBps(tier int) (float64, error) {
	cls := classOf(tier)
	s, err := NewStrataStack(func(string, uint64, int64, int64) device.Class { return cls })
	if err != nil {
		return 0, err
	}
	f, err := s.FS.Create("/load")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := seqFill(f, e2FileSize, 3); err != nil {
		return 0, err
	}
	if err := s.FS.Digest(); err != nil {
		return 0, err
	}

	w := simclock.StartWatch(s.Clk)
	if err := randomWrites(f, e2FileSize, e2TotalWrite, e2BlockSize, 11); err != nil {
		return 0, err
	}
	// Include draining the log so the measurement covers the full
	// log-then-digest cost, as sustained operation would.
	if err := s.FS.Digest(); err != nil {
		return 0, err
	}
	return mbps(e2TotalWrite, w.Elapsed()), nil
}
