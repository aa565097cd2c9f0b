package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/guard"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// The parallel migration engine executes the Policy Runner's planned moves
// as migration batches (occ.go migrateBatch) instead of one at a time. Real
// tiered systems win by exploiting parallel tier bandwidth: while one move
// streams off the HDD, another can run PM→SSD, and within a move the
// pipelined copier (occ.go) overlaps source reads with destination writes.
// Four invariants shape the design:
//
//   - One durability barrier per batch. Copies run first, then one tier
//     Sync each, then the commits, one meta flush and the punches — the
//     serial cost is paid per round, not per move.
//   - Per-file ordering. A batch holds at most one move per path, and a
//     Mirror move runs between batches, so the moves on one file execute in
//     planned order and the runner itself can never trip ErrMigrationActive.
//   - Per-tier throttling. A guard.Gate per tier, sized from the
//     device profile (tierWidth), keeps N workers copying from
//     oversubscribing a slow tier while a fast one idles.
//   - Outcome determinism. Workers change interleaving, not results: moves
//     in a batch are on distinct files and commit in planned order, and
//     MigrationWorkers=1 copies serially (no goroutines, single-buffer copy).

// MigrationStats summarizes one Policy Runner round.
type MigrationStats struct {
	Planned    int   // moves the policy proposed
	Executed   int   // moves that relocated at least one byte
	Skipped    int   // file vanished or was already migrating
	Conflicts  int64 // OCC conflict rounds observed during the round*
	BytesMoved int64 // bytes committed to their destination tier

	// QuarantineSkipped counts moves dropped because their source or
	// destination tier was quarantined (health.go) — either filtered at
	// planning time or aborted mid-round by the breaker opening.
	QuarantineSkipped int
	// ReplicasRepaired counts degraded replicas re-mirrored by this round's
	// reintegration pass (after a quarantined tier recovered).
	ReplicasRepaired int
	// MirrorsCreated / MirrorsCleared count executed Mirror moves
	// (promote-by-mirroring placements and the clears that free their
	// fast-tier bytes ahead of demotion).
	MirrorsCreated int
	MirrorsCleared int

	// QuotaDemotions counts executed moves the policy flagged as quota
	// enforcement (policy.Move.Quota) — capacity-isolation work, kept
	// distinct from ordinary heat-driven migration so operators can see
	// WHY a tenant's bytes left the fast tier.
	QuotaDemotions int

	Virtual time.Duration // virtual ns charged to the simclock by the round
	Wall    time.Duration // host wall-clock time of the round

	// *Conflicts is derived from the OCC Synchronizer's global counter, so
	// user-initiated MigrateRange calls racing the round are attributed to
	// it; under the Policy Runner alone it is exact.
}

// Add accumulates other into s (aggregating stats across rounds).
func (s *MigrationStats) Add(other MigrationStats) {
	s.Planned += other.Planned
	s.Executed += other.Executed
	s.Skipped += other.Skipped
	s.Conflicts += other.Conflicts
	s.BytesMoved += other.BytesMoved
	s.QuarantineSkipped += other.QuarantineSkipped
	s.ReplicasRepaired += other.ReplicasRepaired
	s.MirrorsCreated += other.MirrorsCreated
	s.MirrorsCleared += other.MirrorsCleared
	s.QuotaDemotions += other.QuotaDemotions
	s.Virtual += other.Virtual
	s.Wall += other.Wall
}

// SetMigrationWorkers resizes the migration worker pool at runtime. Values
// below 1 are clamped to 1 (serial execution, single-buffer copy).
func (m *Mux) SetMigrationWorkers(n int) {
	if n < 1 {
		n = 1
	}
	m.migWorkers.Store(int32(n))
}

// MigrationWorkers reports the configured worker-pool size.
func (m *Mux) MigrationWorkers() int { return int(m.migWorkers.Load()) }

// workers is the internal accessor.
func (m *Mux) workers() int { return int(m.migWorkers.Load()) }

// LastMigration returns the stats of the most recent RunPolicyOnce round.
func (m *Mux) LastMigration() MigrationStats {
	m.lastMigMu.Lock()
	defer m.lastMigMu.Unlock()
	return m.lastMig
}

func (m *Mux) setLastMigration(st MigrationStats) {
	m.lastMigMu.Lock()
	m.lastMig = st
	m.lastMigMu.Unlock()
}

// executeMoves runs the planned moves and reports per-round stats. The
// round is one migration batch (migrateBatch), so it pays one durability
// barrier and one meta flush however many moves it holds. Two exceptions
// close the open batch early, keeping per-file planned order: a Mirror
// move (a replica placement, SetReplica / ClearReplica) runs on its own
// once the moves before it have committed, and a second move on a path
// already in the batch starts a new batch. The first hard error stops
// dispatch and is returned once started moves drain; ErrNotExist,
// ErrMigrationActive, ErrNoReplica and ErrTierQuarantined skip the move.
func (m *Mux) executeMoves(moves []policy.Move) (MigrationStats, error) {
	st := MigrationStats{Planned: len(moves)}
	if len(moves) == 0 {
		return st, nil
	}
	virtStart := m.clk.Now()
	wallStart := time.Now()
	occBefore := m.occ.snapshot()

	var (
		firstErr error
		failed   atomic.Bool
	)
	apply := func(mv policy.Move, moved int64, err error) {
		switch {
		case err == nil:
			if mv.Mirror {
				st.Executed++
				if mv.DstTier >= 0 {
					st.MirrorsCreated++
				} else {
					st.MirrorsCleared++
				}
			} else if moved > 0 {
				st.Executed++
				st.BytesMoved += moved
				if mv.Quota {
					st.QuotaDemotions++
				}
			}
		case errors.Is(err, ErrTierQuarantined):
			// The breaker opened mid-round; the move is retried by a later
			// round once the tier recovers (or its blocks drain elsewhere).
			st.QuarantineSkipped++
		case isSkipErr(err):
			// ErrNoReplica: a planned mirror clear lost a race with another
			// round (or a user ClearReplica) — nothing left to do.
			st.Skipped++
		default:
			if firstErr == nil {
				firstErr = err
			}
			failed.Store(true)
		}
	}

	workers := m.workers()
	var (
		batch   []*migJob
		batchMv []policy.Move
	)
	runBatch := func() {
		if len(batch) == 0 {
			return
		}
		m.migrateBatch(batch, workers, &failed)
		for i, j := range batch {
			if j.ran {
				apply(batchMv[i], j.moved, j.err)
			}
		}
		batch, batchMv = batch[:0], batchMv[:0]
	}
	for _, mv := range moves {
		p := vfs.CleanPath(mv.Path)
		if mv.Mirror || slices.ContainsFunc(batch, func(j *migJob) bool { return j.path == p }) {
			runBatch()
		}
		if failed.Load() {
			break
		}
		if !mv.Mirror {
			batch = append(batch, m.newMigJob(p, mv.SrcTier, mv.DstTier, mv.Off, mv.N))
			batchMv = append(batchMv, mv)
			continue
		}
		var err error
		if mv.DstTier >= 0 {
			err = m.SetReplica(mv.Path, mv.DstTier)
		} else {
			err = m.ClearReplica(mv.Path)
		}
		apply(mv, 0, err)
	}
	runBatch()

	st.Conflicts = m.occ.snapshot().Conflicts - occBefore.Conflicts
	st.Virtual = m.clk.Now() - virtStart
	st.Wall = time.Since(wallStart)
	return st, firstErr
}

// tierThrottles builds one weighted gate per live tier for a round.
func (m *Mux) tierThrottles(workers int) map[int]*guard.Gate {
	th := make(map[int]*guard.Gate)
	for _, t := range m.Tiers() {
		th[t.ID] = guard.NewGate(tierWidth(t.Prof, workers))
	}
	return th
}

// tierWidth derives a tier's migration concurrency from its device profile:
// rotational devices take a single stream (parallel streams would only add
// seeks), solid-state tiers get one slot per ~512 MiB/s of sustained
// bandwidth, capped at the pool size. A PM tier therefore admits the whole
// pool while an HDD tier admits one mover at a time. The data-path fan-out
// sizes its persistent per-tier gates with the same rule (mux.go
// AddTier, capped at maxTierIOWidth) — the engine's per-round throttles
// stay separate instances because movers hold their slots across a move's
// begin and copy, which take f.mu; sharing them with the data path
// (which fans out while holding f.mu on writes) could deadlock.
func tierWidth(p device.Profile, workers int) int {
	if workers < 1 {
		workers = 1
	}
	if p.SeekLatency > 0 {
		return 1
	}
	bw := p.ReadBandwidth
	if p.WriteBandwidth > 0 && (bw == 0 || p.WriteBandwidth < bw) {
		bw = p.WriteBandwidth
	}
	w := int(bw / (512 << 20))
	if w < 1 {
		w = 1
	}
	if w > workers {
		w = workers
	}
	return w
}

// acquireTierSlots takes one slot on the move's source and destination
// throttles, in ascending tier-id order so two movers can never deadlock on
// opposite pairs, and returns the release function. A tier missing from
// the round's table (nil gate) is unbounded.
func acquireTierSlots(th map[int]*guard.Gate, src, dst int) func() {
	lo, hi := th[min(src, dst)], th[max(src, dst)]
	lo.Acquire()
	if src != dst {
		hi.Acquire()
	}
	return func() {
		if src != dst {
			hi.Release()
		}
		lo.Release()
	}
}
