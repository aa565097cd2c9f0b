package core

import (
	"sort"
	"time"

	"muxfs/internal/policy"
)

// heatDecay halves file heat each policy round, giving PlanMigrations a
// decayed access-frequency signal.
const heatDecay = 0.5

// RunPolicyOnce is the Policy Runner (Figure 1c): snapshot tier usage and
// per-file heat, ask the policy for moves, order them with the I/O
// scheduler's cost estimates, and execute them through the parallel
// migration engine (engine.go) and the OCC Synchronizer. It returns the
// round's MigrationStats.
func (m *Mux) RunPolicyOnce() (MigrationStats, error) {
	// Reintegration: a quarantined tier recovered since the last round
	// (health.go flagged it); re-mirror the replicas that degraded during
	// the outage before planning, so the round sees repaired state.
	repaired := 0
	if m.repairPending.CompareAndSwap(true, false) {
		n, err := m.RepairDegradedReplicas()
		repaired = n
		if err != nil && m.migLogf != nil {
			m.migLogf("mux %s: replica repair incomplete: %v", m.name, err)
		}
	}

	tiers := m.tierInfos()
	if len(tiers) == 0 {
		return MigrationStats{}, ErrNoTiers
	}

	rs := m.round.Swap(nil) // a concurrent round builds its own
	if rs == nil {
		rs = new(roundScratch)
	}
	// rs goes back to m.round only after the heat decay below, the last
	// reader of filePtrs, and without its file pointers, which would keep
	// removed files alive until the next round.
	defer func() {
		clear(rs.files)
		m.round.Store(rs)
	}()
	rs.files = m.files.appendTo(rs.files[:0])
	filePtrs := rs.files
	stats := rs.fileStats(filePtrs)
	if m.tenantsP.Load() != nil {
		// Per-tenant occupancy gauges ride the snapshot the round already
		// took — no second namespace pass (tenant.go).
		m.refreshTenantOccupancy(stats)
	}
	moves := m.policy().PlanMigrations(tiers, stats, m.now())

	// Quarantined tiers were already hidden from the planning snapshot, but
	// a policy may still propose moves touching one (Pinned ignores the
	// tier list; a breaker can open between snapshot and here). Drop them —
	// Planned keeps the policy's proposal count.
	planned := len(moves)
	quarantineSkipped := 0
	kept := moves[:0]
	for _, mv := range moves {
		if m.tierQuarantined(mv.SrcTier) || m.tierQuarantined(mv.DstTier) {
			quarantineSkipped++
			continue
		}
		kept = append(kept, mv)
	}
	m.orderMoves(kept)

	st, err := m.executeMoves(kept)
	st.Planned = planned
	st.QuarantineSkipped += quarantineSkipped
	st.ReplicasRepaired = repaired
	if err == nil {
		// Heat decays only once the round has fully executed. Decaying at
		// snapshot time (the old behavior) cooled the working set even when
		// the round failed and had to be retried — halving heat twice for
		// one effective round — and cooled it before the planned moves ran.
		for _, f := range filePtrs {
			f.heatScale(heatDecay)
		}
	}
	m.setLastMigration(st)

	// Autotune hook: after the round's effects are booked, feed the
	// controller a cumulative telemetry sample and let it nudge the live
	// policy's knobs for the NEXT round (internal/policy/autotune). A
	// failed round still samples — degradation is exactly what should
	// steer the controller away from a bad probe.
	if tn := m.tunerP.Load(); tn != nil {
		tn.Step(m.autotuneSample())
	}
	return st, err
}

// roundScratch is the policy round's reusable FileStat snapshot, with the
// flat arrays its Tiers and TierBytes are cut from (Mux.round).
type roundScratch struct {
	files []*muxFile // the round's file snapshot
	stats []policy.FileStat
	tiers []int
	bytes []int64
	tally []int64 // one file's bytes per tier id
}

// fileStats snapshots files for PlanMigrations into the reused arrays.
func (rs *roundScratch) fileStats(files []*muxFile) []policy.FileStat {
	rs.stats, rs.tiers, rs.bytes = rs.stats[:0], rs.tiers[:0], rs.bytes[:0]
	for _, f := range files {
		f.mu.Lock()
		f.blt.Walk(func(_, n int64, tier int) bool {
			for tier >= len(rs.tally) {
				rs.tally = append(rs.tally, 0)
			}
			rs.tally[tier] += n
			return true
		})
		start := len(rs.tiers)
		for tier, b := range rs.tally {
			if b > 0 {
				rs.tiers = append(rs.tiers, tier)
				rs.bytes = append(rs.bytes, b)
				rs.tally[tier] = 0
			}
		}
		end := len(rs.tiers)
		rs.stats = append(rs.stats, policy.FileStat{
			Path:            f.path,
			Size:            f.meta.Size,
			LastAccess:      time.Duration(f.lastAccessA.Load()),
			Heat:            f.heatLoad(),
			Tiers:           rs.tiers[start:end:end],
			TierBytes:       rs.bytes[start:end:end],
			Replica:         f.replica,
			ReplicaDegraded: f.replicaDegraded,
		})
		f.mu.Unlock()
	}
	return rs.stats
}

// orderMoves is the simple device-profile I/O scheduler (§4): mirror
// clears run first (they free fast-tier bytes without moving any data, so
// everything behind them sees the room), then promotions — which cut
// future access latency — then demotions, and within each group cheaper
// transfers run first so the queue drains small requests quickly.
func (m *Mux) orderMoves(moves []policy.Move) {
	rank := func(mv policy.Move) int {
		switch {
		case mv.Mirror && mv.DstTier < 0:
			return 0
		case mv.Promote:
			return 1
		default:
			return 2
		}
	}
	cost := func(mv policy.Move) time.Duration {
		srcT, err1 := m.tier(mv.SrcTier)
		dstT, err2 := m.tier(mv.DstTier)
		if err1 != nil || err2 != nil {
			return time.Hour
		}
		n := mv.N
		if n < 0 {
			n = 1 << 20 // unknown size: assume a megabyte
		}
		var d time.Duration
		d += srcT.Prof.ReadLatency + dstT.Prof.WriteLatency
		if bw := srcT.Prof.ReadBandwidth; bw > 0 {
			d += time.Duration(n * int64(time.Second) / bw)
		}
		if bw := dstT.Prof.WriteBandwidth; bw > 0 {
			d += time.Duration(n * int64(time.Second) / bw)
		}
		return d
	}
	sort.SliceStable(moves, func(i, j int) bool {
		if ri, rj := rank(moves[i]), rank(moves[j]); ri != rj {
			return ri < rj
		}
		return cost(moves[i]) < cost(moves[j])
	})
}

// PolicyRunner runs RunPolicyOnce on a wall-clock interval until stop is
// closed. Long-running applications (and the examples) use it as the
// background tiering daemon; benchmarks call RunPolicyOnce directly for
// determinism. Each round's MigrationStats are logged through
// Config.MigrationLogf when one is configured.
func (m *Mux) PolicyRunner(interval time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			// Policy errors are advisory here; the next round retries.
			st, err := m.RunPolicyOnce()
			if m.migLogf == nil {
				continue
			}
			if err != nil {
				m.migLogf("mux %s: policy round failed: %v", m.name, err)
			} else if st.Planned > 0 || st.ReplicasRepaired > 0 {
				m.migLogf("mux %s: policy round: planned=%d executed=%d skipped=%d qskipped=%d qdemote=%d repaired=%d mirrors=%d/-%d conflicts=%d bytes=%d virt=%v wall=%v",
					m.name, st.Planned, st.Executed, st.Skipped, st.QuarantineSkipped, st.QuotaDemotions, st.ReplicasRepaired, st.MirrorsCreated, st.MirrorsCleared, st.Conflicts, st.BytesMoved, st.Virtual, st.Wall)
			}
		}
	}
}
