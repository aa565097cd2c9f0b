package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/device"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// E6 — tier fault drill: user-visible error rate under injected device
// faults, with and without replication.
//
// The paper's §4 sketch argues Mux's cross-device replication enables
// stronger fault handling than monolithic tiered FSes. E6 measures that
// end to end against the health subsystem (core/health.go):
//
//	Phase A (transient noise): the PM device fails ~1% of ops transiently.
//	  Bounded retry-plus-backoff must absorb every fault — zero
//	  user-visible errors even without quarantine.
//	Phase B (outage): the PM device fails every op (sticky). The breaker
//	  opens after 4 consecutive faults (core's fixed breaker threshold) and
//	  quarantines the tier; reads of PM-resident files fall back to their
//	  HDD replicas, mirror writes onto PM degrade instead of failing the
//	  user op, and migrations touching PM are refused. Zero user-visible errors with
//	  replication; the unreplicated baseline shows what users see without.
//	Phase C (recovery): faults clear, the cooldown elapses, the next read
//	  probes the tier and closes the breaker, and the following policy
//	  round re-mirrors every replica that degraded during the outage.
//
// All timing is virtual and the fault sequence is seeded, so the drill is
// deterministic: RunE6 executes the replicated drill twice and compares
// every counter.

// e6Seed seeds the PM device's fault plans.
const e6Seed = 42

// Drill workload shape.
const (
	e6RFiles   = 12        // read-workload files: PM authoritative, HDD replica
	e6WFiles   = 8         // write-workload files: SSD authoritative, PM replica
	e6FileSize = 256 << 10 // 256 KiB per file
	e6Chunk    = 64 << 10  // per-op I/O size
	e6Passes   = 3         // workload passes per phase
)

// Drill health tuning: a short cooldown keeps the recovery phase cheap.
const (
	e6Cooldown = 2 * time.Millisecond
	e6Backoff  = 20 * time.Microsecond
)

// E6Result is the fault-drill measurement.
type E6Result struct {
	Seed     int64
	ReadOps  int // user read ops per drill
	WriteOps int // user write ops per drill

	// Replicated drill.
	TransientUserErrs int   // phase A user-visible errors (want 0)
	TransientRetries  int64 // transient retries absorbed in phase A
	TransientFaults   int64 // device-level faults injected in phase A
	OutageUserErrs    int   // phase B user-visible errors (want 0)
	Quarantined       bool  // PM quarantined while the outage held
	MigrateRefused    bool  // migration off the sick tier denied
	DegradedReplicas  int   // PM mirrors degraded during the outage
	Repaired          int   // replicas re-mirrored by the recovery round
	HealthyAfter      bool  // PM healthy + nothing degraded at drill end
	FailbackOK        bool  // repaired PM mirrors serve when SSD then dies

	// Unreplicated baseline: the same outage with no replicas.
	PlainUserErrs int
	PlainOps      int

	// Deterministic reports whether a second seeded run reproduced every
	// counter above exactly.
	Deterministic bool
}

// e6Policy places /e6/w* files on the SSD tier and everything else on PM,
// honoring the (possibly quarantine-filtered) tier list it is given; when
// the preferred tier is hidden it falls back to the fastest tier offered.
// It plans no migrations — the drill drives all movement explicitly.
func e6Policy() policy.Policy {
	return policy.Func{
		PolicyName: "e6-split",
		Place: func(ctx policy.WriteCtx, tiers []policy.TierInfo) int {
			want := 0
			if strings.HasPrefix(ctx.Path, "/e6/w") {
				want = 1
			}
			for _, t := range tiers {
				if t.ID == want {
					return t.ID
				}
			}
			return tiers[0].ID
		},
	}
}

func e6RPath(i int) string { return fmt.Sprintf("/e6/r%02d", i) }
func e6WPath(i int) string { return fmt.Sprintf("/e6/w%02d", i) }

// e6Fill returns file i's initial contents (deterministic pattern).
func e6Fill(i int) []byte {
	p := make([]byte, e6FileSize)
	for j := range p {
		p[j] = byte(i*31 + j)
	}
	return p
}

// e6Run is one drill execution's raw counters (the determinism fingerprint).
type e6Run struct {
	readOps, writeOps  int
	transientErrs      int
	transientRetries   int64
	transientFaults    int64
	outageErrs         int
	quarantined        bool
	migrateRefused     bool
	degraded           int
	repaired           int
	healthyAfter       bool
	failbackOK         bool
	virtualAtEnd       time.Duration
	plainErrs, plainOp int
}

// e6Drill runs the three-phase drill. With replicated=false it stops after
// phase B (there is nothing to repair) and only the error counts matter.
func e6Drill(replicated bool, seed int64) (*e6Run, error) {
	s, err := newStack(stackSpec{mux: core.Config{
		Name:            "mux-e6",
		Policy:          e6Policy(),
		RetryBackoff:    e6Backoff,
		BreakerCooldown: e6Cooldown,
	}})
	if err != nil {
		return nil, err
	}
	run := &e6Run{}

	// --- Setup: working set + replicas, all tiers healthy. ---
	if err := s.mux.Mkdir("/e6"); err != nil {
		return nil, err
	}
	rFiles := make([]vfs.File, e6RFiles)
	wFiles := make([]vfs.File, e6WFiles)
	wWant := make([][]byte, e6WFiles) // expected contents, updated per write
	for i := 0; i < e6RFiles; i++ {
		f, err := s.mux.Create(e6RPath(i))
		if err != nil {
			return nil, err
		}
		if err := mustWrite(f, e6Fill(i), 0); err != nil {
			return nil, err
		}
		rFiles[i] = f
		if replicated {
			if err := s.mux.SetReplica(e6RPath(i), 2); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < e6WFiles; i++ {
		f, err := s.mux.Create(e6WPath(i))
		if err != nil {
			return nil, err
		}
		if err := mustWrite(f, e6Fill(100+i), 0); err != nil {
			return nil, err
		}
		wFiles[i] = f
		wWant[i] = e6Fill(100 + i)
		if replicated {
			if err := s.mux.SetReplica(e6WPath(i), 0); err != nil {
				return nil, err
			}
		}
	}

	// workload runs one pass: every R file read chunkwise and verified,
	// every W file written one chunk. Returns user-visible errors.
	buf := make([]byte, e6Chunk)
	workload := func(pass int) int {
		errs := 0
		for i, f := range rFiles {
			want := e6Fill(i)
			for off := int64(0); off < e6FileSize; off += e6Chunk {
				run.readOps++
				if _, err := f.ReadAt(buf, off); err != nil {
					errs++
					continue
				}
				if !bytes.Equal(buf, want[off:off+e6Chunk]) {
					errs++
				}
			}
		}
		for i, f := range wFiles {
			off := int64(pass%4) * e6Chunk
			chunk := make([]byte, e6Chunk)
			for j := range chunk {
				chunk[j] = byte(200 + i + pass + j)
			}
			run.writeOps++
			if _, err := f.WriteAt(chunk, off); err != nil {
				errs++
				continue
			}
			copy(wWant[i][off:], chunk)
		}
		return errs
	}

	// --- Phase A: ≤1% transient faults + latency spikes on PM. ---
	pmStatsBefore := s.devs[0].Stats()
	s.devs[0].InjectFaults(device.FaultPlan{
		Seed:         seed,
		ReadErrProb:  0.01,
		WriteErrProb: 0.01,
		LatencyProb:  0.005,
		LatencySpike: 200 * time.Microsecond,
	})
	for pass := 0; pass < e6Passes; pass++ {
		run.transientErrs += workload(pass)
	}
	s.devs[0].ClearFaults()
	run.transientFaults = s.devs[0].Stats().Sub(pmStatsBefore).Faults
	for _, h := range s.mux.TierHealth() {
		if h.TierID == 0 {
			run.transientRetries = h.Retries
		}
	}

	// --- Phase B: sticky outage on PM. ---
	s.devs[0].InjectFaults(device.FaultPlan{
		Seed:        seed + 1,
		ReadErrProb: 1, WriteErrProb: 1,
		Sticky: true,
	})
	for pass := e6Passes; pass < 2*e6Passes; pass++ {
		run.outageErrs += workload(pass)
	}
	for _, h := range s.mux.TierHealth() {
		if h.TierID == 0 {
			run.quarantined = h.State == "quarantined"
			run.degraded = h.DegradedReplicas
		}
	}
	// Migrations off the sick tier are refused, not hung or half-done.
	_, migErr := s.mux.Migrate(e6RPath(0), 0, 1)
	run.migrateRefused = errors.Is(migErr, core.ErrTierQuarantined)

	if !replicated {
		run.plainErrs = run.outageErrs
		run.plainOp = e6Passes * (e6RFiles*(e6FileSize/e6Chunk) + e6WFiles)
		run.virtualAtEnd = s.clk.Now()
		return run, nil
	}

	// --- Phase C: device recovers; cooldown, probe, reintegrate. ---
	s.devs[0].ClearFaults()
	s.clk.Advance(e6Cooldown + time.Millisecond)
	// The next read admits as the breaker's probe, succeeds, and closes it.
	for i, f := range rFiles {
		if _, err := f.ReadAt(buf, 0); err != nil {
			return nil, fmt.Errorf("post-recovery read %s: %w", e6RPath(i), err)
		}
	}
	st, err := s.mux.RunPolicyOnce()
	if err != nil {
		return nil, fmt.Errorf("reintegration round: %w", err)
	}
	run.repaired = st.ReplicasRepaired
	run.healthyAfter = true
	for _, h := range s.mux.TierHealth() {
		if h.TierID == 0 && (h.State != "healthy" || h.DegradedReplicas != 0) {
			run.healthyAfter = false
		}
	}

	// Failback: the SSD dies; W files must now be served whole from the
	// PM mirrors the reintegration just repaired.
	s.devs[1].InjectFailure(true)
	run.failbackOK = true
	for i, f := range wFiles {
		for off := int64(0); off < e6FileSize; off += e6Chunk {
			if _, err := f.ReadAt(buf, off); err != nil {
				run.failbackOK = false
				break
			}
			if !bytes.Equal(buf, wWant[i][off:off+e6Chunk]) {
				run.failbackOK = false
				break
			}
		}
	}
	s.devs[1].InjectFailure(false)

	run.virtualAtEnd = s.clk.Now()
	return run, nil
}

// RunE6 executes the fault drill: replicated twice (determinism check) and
// once unreplicated (baseline error rate).
func RunE6() (*E6Result, error) {
	a, err := e6Drill(true, e6Seed)
	if err != nil {
		return nil, fmt.Errorf("E6 replicated: %w", err)
	}
	b, err := e6Drill(true, e6Seed)
	if err != nil {
		return nil, fmt.Errorf("E6 replicated rerun: %w", err)
	}
	plain, err := e6Drill(false, e6Seed)
	if err != nil {
		return nil, fmt.Errorf("E6 plain: %w", err)
	}
	return &E6Result{
		Seed:              e6Seed,
		ReadOps:           a.readOps,
		WriteOps:          a.writeOps,
		TransientUserErrs: a.transientErrs,
		TransientRetries:  a.transientRetries,
		TransientFaults:   a.transientFaults,
		OutageUserErrs:    a.outageErrs,
		Quarantined:       a.quarantined,
		MigrateRefused:    a.migrateRefused,
		DegradedReplicas:  a.degraded,
		Repaired:          a.repaired,
		HealthyAfter:      a.healthyAfter,
		FailbackOK:        a.failbackOK,
		PlainUserErrs:     plain.plainErrs,
		PlainOps:          plain.plainOp,
		Deterministic:     *a == *b,
	}, nil
}

// Check requires the replicated working set to ride out both fault phases
// without a single user-visible error while the unreplicated baseline
// collapses; transient faults absorbed by retry, not masked by chance; the
// breaker quarantining the faulty tier; every degraded mirror repaired;
// and identical counters across seeded reruns.
func (r *E6Result) Check(Gates) error {
	var v verdict
	v.require(r.TransientUserErrs == 0, "transient phase: %d user-visible errors, want 0", r.TransientUserErrs)
	v.require(r.OutageUserErrs == 0, "outage phase: %d user-visible errors, want 0", r.OutageUserErrs)
	v.require(r.PlainUserErrs > 0, "unreplicated baseline saw no errors — the injected outage did nothing")
	v.require(r.TransientFaults > 0, "transient phase injected no device faults — probability miscalibrated")
	v.require(r.TransientRetries > 0, "no retries recorded — transient faults were not absorbed by the retry path")
	v.require(r.Quarantined, "sticky outage did not quarantine the faulty tier")
	v.require(r.MigrateRefused, "migration onto the quarantined tier was not refused")
	v.require(r.DegradedReplicas == e6WFiles, "degraded replicas = %d, want %d", r.DegradedReplicas, e6WFiles)
	v.require(r.Repaired == r.DegradedReplicas, "repaired %d of %d degraded replicas", r.Repaired, r.DegradedReplicas)
	v.require(r.HealthyAfter, "tier did not return to healthy after recovery")
	v.require(r.FailbackOK, "repaired PM mirrors could not serve reads when the SSD tier failed")
	v.require(r.Deterministic, "drill counters diverged across seeded reruns")
	return v.err()
}
