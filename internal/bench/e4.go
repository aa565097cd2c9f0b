package bench

import (
	"fmt"

	"muxfs/internal/policy"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// E4Row is one device's write-throughput comparison (§3.2).
type E4Row struct {
	Device      string
	NativeMBps  float64
	MuxMBps     float64
	OverheadPct float64 // paper: −1.6% PM, −2.2% SSD, −3.5% HDD
}

// E4Result reproduces the §3.2 write-throughput experiment: sequential
// 4 MiB writes, native FS vs the same FS under Mux.
type E4Result struct {
	Rows [3]E4Row
}

// RunE4 measures sequential-write throughput on each device.
func RunE4() (*E4Result, error) {
	res := &E4Result{}
	for i := 0; i < 3; i++ {
		native, err := nativeSeqWriteMBps(i)
		if err != nil {
			return nil, fmt.Errorf("E4 native %s: %w", TierName[i], err)
		}
		mux, err := muxSeqWriteMBps(i)
		if err != nil {
			return nil, fmt.Errorf("E4 mux %s: %w", TierName[i], err)
		}
		res.Rows[i] = E4Row{
			Device:      TierName[i],
			NativeMBps:  native,
			MuxMBps:     mux,
			OverheadPct: 100 * (native - mux) / native,
		}
	}
	return res, nil
}

// Check holds E4 to §3.2: the write overhead stays small single digits on
// every device (paper: at most 3.5%).
func (r *E4Result) Check(Gates) error {
	var v verdict
	for _, row := range r.Rows {
		v.require(row.OverheadPct >= -0.5 && row.OverheadPct <= 5, "%s write overhead = %.2f%%, want small and non-negative", row.Device, row.OverheadPct)
	}
	return v.err()
}

// seqWrite4M writes e4Total bytes in e4Block sequential chunks and returns
// throughput.
func seqWrite4M(clk *simclock.Clock, f vfs.File) (float64, error) {
	block := make([]byte, e4Block)
	for i := range block {
		block[i] = byte(i * 13)
	}
	w := simclock.StartWatch(clk)
	for off := int64(0); off < e4Total; off += e4Block {
		if err := mustWrite(f, block, off); err != nil {
			return 0, err
		}
	}
	// fsync inside the window: throughput reflects the device, not DRAM.
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return mbps(e4Total, w.Elapsed()), nil
}

func nativeSeqWriteMBps(tier int) (float64, error) {
	s, err := newStack(paperSpec(nil))
	if err != nil {
		return 0, err
	}
	f, err := s.fses[tier].Create("/seq")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return seqWrite4M(s.clk, f)
}

func muxSeqWriteMBps(tier int) (float64, error) {
	s, err := newStack(paperSpec(policy.Pinned{Tier: tier}))
	if err != nil {
		return 0, err
	}
	f, err := s.mux.Create("/seq")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return seqWrite4M(s.clk, f)
}
