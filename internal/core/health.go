package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/guard"
)

// Tier fault domains (§4 direction): every downward data op runs through a
// per-tier health tracker. Transient device faults are absorbed by bounded
// retry-plus-backoff (charged to the virtual clock, like every other cost);
// a run of consecutive faults opens the tier's circuit breaker (a
// guard.Breaker on the virtual clock), which quarantines the tier. While
// quarantined:
//
//   - reads of blocks mapped there fall back to the file's replica,
//   - writes to blocks mapped there are redirected to a healthy tier (the
//     policy re-places them, progressively draining the sick tier),
//   - placement and Policy Runner planning skip the tier entirely.
//
// After BreakerCooldown of virtual time the breaker goes half-open: the next
// op is admitted as a probe. A successful probe (and only a probe) closes
// the breaker and
// flags the Mux for reintegration — the next Policy Runner round re-mirrors
// every replica that degraded during the outage (RepairDegradedReplicas).
//
// Only injected/device faults (device.IsFault) count against a tier's
// breaker; logical errors like ErrNoSpace or ErrNotExist never quarantine
// a tier.

// ErrTierQuarantined reports an operation denied because the target tier's
// circuit breaker is open.
var ErrTierQuarantined = errors.New("mux: tier quarantined")

// Health tracker tuning. RetryBackoff and BreakerCooldown are overridable
// via Config; the threshold and retry bound are fixed.
const (
	breakerThreshold       = 4 // consecutive device faults that quarantine a tier
	ioRetries              = 3 // retries of a transient-faulting op before it counts
	defaultRetryBackoff    = 50 * time.Microsecond
	defaultBreakerCooldown = 10 * time.Millisecond
)

// tierHealth is one tier's circuit breaker (on the Mux's virtual clock)
// plus its retry counter. It lives in the tier's record (Tier.health), so
// hot paths reach it through the lock-free tier table.
type tierHealth struct {
	guard.Breaker
	retries atomic.Int64 // transient-fault retry attempts (each also a fault)
}

// TierHealthInfo is the public snapshot of one tier's health tracker.
type TierHealthInfo struct {
	TierID int
	Name   string
	State  string // "healthy", "quarantined", or "probing"

	Ops         int64 // downward data ops attempted
	Faults      int64 // attempts failed by device faults
	Retries     int64 // transient-fault retries performed
	ConsecFails int   // current consecutive-fault run
	Quarantines int64 // times the circuit breaker opened
	// SinceOpen is the virtual time since the breaker opened (zero when
	// healthy); LastFault is the most recent fault's message.
	SinceOpen time.Duration
	LastFault string

	// DegradedReplicas counts files whose replica lives on this tier and
	// diverged after a failed mirror write (cleared by repair).
	DegradedReplicas int
}

// quarantined reports whether the tier is currently under quarantine
// (breaker open or probing). Placement and write redirection consult it.
func (t *Tier) quarantined() bool { return t.health.State() != guard.Closed }

// tierQuarantined is quarantined by tier id; unknown ids are not
// quarantined.
func (m *Mux) tierQuarantined(id int) bool {
	t := m.tierRec(id)
	return t != nil && t.quarantined()
}

// snapshot returns the tracker's public view.
func (h *tierHealth) snapshot(id int, name string) TierHealthInfo {
	st := h.Snapshot()
	retries := h.retries.Load()
	return TierHealthInfo{
		TierID:      id,
		Name:        name,
		State:       st.State.String(),
		Ops:         st.Ops,
		Faults:      st.Faults + retries,
		Retries:     retries,
		ConsecFails: st.Consec,
		Quarantines: st.Opens,
		SinceOpen:   st.SinceOpen,
		LastFault:   st.LastFault,
	}
}

// tierOutcome is core's fault classifier: only injected/device faults
// (device.IsFault) count against a tier; logical errors (ErrNoSpace,
// ErrNotExist, ...; io.EOF is filtered by the caller) neither heal nor harm.
func tierOutcome(err error) guard.Outcome {
	switch {
	case err == nil:
		return guard.Success
	case device.IsFault(err):
		return guard.Fault
	default:
		return guard.Neutral
	}
}

// tierIO runs one downward data op against tier t with circuit-breaker
// admission, bounded retry-plus-backoff on transient faults, and health
// accounting. The backoff is charged to the virtual clock (doubling each
// attempt), so drills measure its cost deterministically. op must swallow
// io.EOF itself when EOF is benign for the caller. tierIO is safe under
// concurrent callers — the data-path fan-out (fanout.go) issues segment
// groups of one request through it in parallel, one goroutine per tier —
// because admission, retry accounting, and the clock advance are all
// internally synchronized.
func (m *Mux) tierIO(t *Tier, op func() error) error {
	h := &t.health
	if !h.Allow() {
		return fmt.Errorf("%w: tier %d", ErrTierQuarantined, t.ID)
	}
	backoff := m.retryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || !device.IsTransient(err) || attempt >= ioRetries {
			break
		}
		h.retries.Add(1)
		m.clk.Advance(backoff)
		backoff *= 2
	}
	opened, closed := h.Record(tierOutcome(err), err)
	if closed {
		// A probe just closed the breaker. Don't repair inline — tierIO may
		// run under a file lock; the next Policy Runner round (or an explicit
		// RepairDegradedReplicas call) re-mirrors what degraded.
		m.repairPending.Store(true)
		m.telTraceQuarantine(t.ID, false, "")
	} else if opened {
		m.telTraceQuarantine(t.ID, true, err.Error())
	}
	return err
}

// TierHealth reports the health snapshot of every live tier, fastest first.
func (m *Mux) TierHealth() []TierHealthInfo {
	degraded := m.degradedByTier()
	var out []TierHealthInfo
	for _, t := range m.tierTab.Load().live {
		info := t.health.snapshot(t.ID, t.Prof.Name)
		info.DegradedReplicas = degraded[t.ID]
		out = append(out, info)
	}
	return out
}

// degradedByTier counts degraded replicas per replica tier.
func (m *Mux) degradedByTier() map[int]int {
	ptrs := m.files.snapshot()
	out := map[int]int{}
	for _, f := range ptrs {
		f.mu.Lock()
		if f.replica >= 0 && f.replicaDegraded {
			out[f.replica]++
		}
		f.mu.Unlock()
	}
	return out
}

// RepairDegradedReplicas re-mirrors every file whose replica diverged after
// a failed mirror write (tier outage, transient fault burst). It returns
// the number of replicas repaired and the first error encountered; files
// that fail to repair stay degraded and are retried on the next call. The
// Policy Runner invokes this automatically after a quarantined tier
// recovers.
func (m *Mux) RepairDegradedReplicas() (int, error) {
	ptrs := m.files.snapshot()
	var paths []string
	for _, f := range ptrs {
		f.mu.Lock()
		if f.replica >= 0 && f.replicaDegraded {
			paths = append(paths, f.path)
		}
		f.mu.Unlock()
	}
	repaired := 0
	var firstErr error
	for _, p := range paths {
		if err := m.RepairFile(p); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		repaired++
	}
	if firstErr != nil {
		// Something is still degraded; keep the reintegration flag set so
		// the next Policy Runner round tries again.
		m.repairPending.Store(true)
	}
	return repaired, firstErr
}
