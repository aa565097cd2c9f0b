package bench

import (
	"fmt"
	"io"

	"muxfs/internal/policy"
	"muxfs/internal/simclock"
)

// A6Result measures the cost of the §4 replication extension: synchronous
// mirroring of every write to a second tier.
type A6Result struct {
	PlainMBps      float64 // sequential write throughput, no replica
	ReplicatedMBps float64 // with an HDD replica
	OverheadPct    float64
	FailoverOK     bool // reads served correctly after primary failure
}

// RunA6 measures replicated-write overhead and validates failover.
func RunA6() (*A6Result, error) {
	const total = 32 << 20
	run := func(replicate bool) (float64, bool, error) {
		s, err := newStack(paperSpec(policy.Pinned{Tier: 0}))
		if err != nil {
			return 0, false, err
		}
		f, err := s.mux.Create("/db")
		if err != nil {
			return 0, false, err
		}
		defer f.Close()
		if replicate {
			if err := s.mux.SetReplica("/db", 2); err != nil {
				return 0, false, err
			}
		}
		block := make([]byte, 1<<20)
		for i := range block {
			block[i] = 0x6D
		}
		w := simclock.StartWatch(s.clk)
		for off := int64(0); off < total; off += int64(len(block)) {
			if err := mustWrite(f, block, off); err != nil {
				return 0, false, err
			}
		}
		if err := f.Sync(); err != nil {
			return 0, false, err
		}
		mb := mbps(total, w.Elapsed())

		failover := false
		if replicate {
			s.devs[0].InjectFailure(true)
			buf := make([]byte, 4096)
			if _, err := f.ReadAt(buf, 0); err == nil && buf[0] == 0x6D {
				failover = true
			}
			s.devs[0].InjectFailure(false)
		}
		return mb, failover, nil
	}

	plain, _, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("A6 plain: %w", err)
	}
	repl, failover, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("A6 replicated: %w", err)
	}
	return &A6Result{
		PlainMBps:      plain,
		ReplicatedMBps: repl,
		OverheadPct:    100 * (plain - repl) / plain,
		FailoverOK:     failover,
	}, nil
}

// Check requires failover reads to come from the replica and the HDD
// mirror to cost measurable write throughput.
func (r *A6Result) Check(Gates) error {
	var v verdict
	v.require(r.FailoverOK, "failover reads did not serve from the replica")
	v.require(r.OverheadPct >= 1, "replication overhead %.1f%% suspiciously free (HDD mirror should cost)", r.OverheadPct)
	v.require(r.ReplicatedMBps > 0 && r.PlainMBps > r.ReplicatedMBps, "throughputs: plain %.1f, replicated %.1f", r.PlainMBps, r.ReplicatedMBps)
	return v.err()
}

// Format prints the A6 table.
func (r *A6Result) Format(w io.Writer) {
	fmt.Fprintln(w, "A6 — replication (§4 crash-consistency extension): PM writes mirrored to HDD")
	fmt.Fprintf(w, "  sequential write: plain %.1f MB/s, replicated %.1f MB/s (%.1f%% overhead); failover reads OK: %v\n",
		r.PlainMBps, r.ReplicatedMBps, r.OverheadPct, r.FailoverOK)
}
