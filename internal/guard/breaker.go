// Package guard holds the two admission primitives every fault domain in
// the tree shares: a circuit Breaker that fences a resource after a run of
// faults and probes it back in after a cooldown, and a Gate that bounds how
// many operations are in flight against it. Core's tiers and ec's stripe
// nodes both use them; each caller keeps its own clock and its own fault
// classifier.
package guard

import (
	"sync"
	"time"
)

// State is a breaker's position.
type State int32

const (
	// Closed admits every operation (the resource is healthy).
	Closed State = iota
	// Open admits nothing until the cooldown elapses (or, after Trip,
	// until Reset).
	Open
	// HalfOpen admits operations as probes: the first success closes the
	// breaker, the first fault reopens it.
	HalfOpen
)

// String names the state the way health reports show it.
func (s State) String() string {
	switch s {
	case Closed:
		return "healthy"
	case Open:
		return "quarantined"
	case HalfOpen:
		return "probing"
	default:
		return "unknown"
	}
}

// Outcome classifies one operation for Record. The caller decides what a
// fault is; the breaker only counts.
type Outcome int

const (
	// Success heals: it ends the fault run and closes a half-open breaker.
	Success Outcome = iota
	// Fault harms: it extends the fault run and opens the breaker at the
	// threshold (or at once while half-open).
	Fault
	// Neutral neither heals nor harms; the operation is only counted.
	Neutral
)

// Breaker is a consecutive-fault circuit breaker. Set Threshold, Cooldown
// and Now before first use; the zero value of the rest is a closed breaker.
// All methods are safe for concurrent use.
type Breaker struct {
	Threshold int                  // consecutive faults that open a closed breaker
	Cooldown  time.Duration        // how long an opened breaker waits before a probe
	Now       func() time.Duration // the clock Cooldown is measured on

	mu        sync.Mutex
	state     State
	manual    bool // opened by Trip: no probe until Reset
	consec    int
	openedAt  time.Duration
	ops       int64
	faults    int64
	opens     int64
	lastFault string
}

// Stats is a point-in-time copy of a breaker's state and counters.
type Stats struct {
	State  State
	Ops    int64 // operations recorded
	Faults int64 // operations recorded as faults
	Opens  int64 // transitions into Open, failed probes and Trip included
	Consec int   // current consecutive-fault run
	// SinceOpen is the time since the breaker last opened (zero when
	// closed); LastFault is the text of the most recent fault.
	SinceOpen time.Duration
	LastFault string
}

// Allow reports whether an operation may proceed now. An open breaker
// whose cooldown has elapsed turns half-open and admits the operation as a
// probe; so does every operation that arrives before the probe resolves.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.availableLocked() {
		return false
	}
	if b.state == Open {
		b.state = HalfOpen
	}
	return true
}

// Available reports whether Allow would admit an operation now, without
// changing any state.
func (b *Breaker) Available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.availableLocked()
}

func (b *Breaker) availableLocked() bool {
	return b.state != Open || (!b.manual && b.Now()-b.openedAt >= b.Cooldown)
}

// Record books the outcome of one admitted operation. err is kept as the
// last-fault text when o is Fault. opened reports that this operation
// opened the breaker (a threshold crossing or a failed probe); closed
// reports that it was a successful probe. A success that lands while the
// breaker is open — an operation admitted before it opened — closes
// nothing: only a probe can.
func (b *Breaker) Record(o Outcome, err error) (opened, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops++
	switch o {
	case Success:
		b.consec = 0
		if b.state == HalfOpen {
			b.state = Closed
			return false, true
		}
	case Fault:
		b.faults++
		b.consec++
		if err != nil {
			b.lastFault = err.Error()
		}
		if b.state == HalfOpen || (b.state == Closed && b.consec >= b.Threshold) {
			b.openLocked()
			return true, false
		}
	}
	return false, false
}

// Trip opens the breaker by hand. Unlike an automatic opening it never
// probes: the breaker stays open until Reset.
func (b *Breaker) Trip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		b.openLocked()
	}
	b.manual = true
}

func (b *Breaker) openLocked() {
	b.state = Open
	b.openedAt = b.Now()
	b.opens++
}

// Reset closes the breaker and clears the fault run, whatever its state.
// The counters are kept.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.manual = false
	b.consec = 0
}

// State reports the breaker's current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Snapshot returns the breaker's state and counters.
func (b *Breaker) Snapshot() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Stats{
		State:     b.state,
		Ops:       b.ops,
		Faults:    b.faults,
		Opens:     b.opens,
		Consec:    b.consec,
		LastFault: b.lastFault,
	}
	if b.state != Closed {
		st.SinceOpen = b.Now() - b.openedAt
	}
	return st
}
