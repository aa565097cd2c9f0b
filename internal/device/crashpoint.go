package device

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"muxfs/internal/bufpool"
)

// ErrCrashPoint reports that a deterministic crash point tripped: the
// operation (and every later durability-changing operation on any device
// sharing the CrashPoint) did not happen. It is deliberately not an
// injected *fault* (IsFault returns false): retry loops must not absorb it,
// because a crashed machine does not come back until remount.
var ErrCrashPoint = errors.New("device: crash point reached")

// CrashPoint is a deterministic crash injector shared by every device of a
// stack. It counts durability steps — the individual page flushes performed
// by Persist/PersistAll, the only moments durable state changes — and, once
// armed with a limit, fails the step whose index reaches the limit and
// latches: all later durability steps and writes on the attached devices
// fail with ErrCrashPoint until the stack is crashed and remounted.
//
// Because step counting is per durable page, arming the sweep at every
// index in [0, Steps()) visits every distinct durable state a power loss
// could freeze, including *torn* flushes: a Persist spanning k dirty pages
// that trips after j of them leaves a prefix of the range durable, exactly
// like a drive dying mid-FLUSH. Runs are deterministic as long as the
// workload issues device operations in a deterministic order (the sweep
// drivers are single-threaded under the virtual clock), so a count run
// followed by one armed run per index replays identical sequences.
type CrashPoint struct {
	mu      sync.Mutex
	steps   int64 // durability steps allowed so far
	limit   int64 // step index that trips; <0 = counting only
	tripped bool
}

// NewCrashPoint returns a counting-only injector (no limit armed). Attach
// it to every device of the stack with Device.SetCrashPoint.
func NewCrashPoint() *CrashPoint {
	return &CrashPoint{limit: -1}
}

// Arm sets the crash point: the durability step whose zero-based index
// equals limit fails, and the injector latches. Arming also clears a prior
// trip latch and resets the step counter, so each sweep iteration can
// re-arm a fresh index on a fresh stack.
func (c *CrashPoint) Arm(limit int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = limit
	c.steps = 0
	c.tripped = false
}

// Disarm returns the injector to counting-only mode and releases the trip
// latch; the step counter keeps running.
func (c *CrashPoint) Disarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = -1
	c.tripped = false
}

// Reset zeroes the step counter and releases the latch, keeping the
// injector in counting-only mode.
func (c *CrashPoint) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = -1
	c.steps = 0
	c.tripped = false
}

// Steps reports the durability steps allowed since the last Arm/Reset.
func (c *CrashPoint) Steps() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}

// Tripped reports whether the armed crash point has fired.
func (c *CrashPoint) Tripped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tripped
}

// step consumes one durability step. It returns false — and latches — when
// the armed limit is reached; once latched every call returns false.
func (c *CrashPoint) step() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tripped {
		return false
	}
	if c.limit >= 0 && c.steps >= c.limit {
		c.tripped = true
		return false
	}
	c.steps++
	return true
}

// blocked reports whether the injector has latched (writes on attached
// devices fail fast after the crash point instead of continuing work whose
// durable effects could never land).
func (c *CrashPoint) blocked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tripped
}

// SetCrashPoint attaches the injector (nil detaches). One CrashPoint is
// shared by all devices of a stack so the sweep index orders durability
// steps globally, the way one power supply feeds every drive.
func (d *Device) SetCrashPoint(cp *CrashPoint) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cp = cp
}

// crashPointErr builds the per-device trip error. Caller holds d.mu.
func (d *Device) crashPointErr() error {
	return fmt.Errorf("device %s: %w", d.prof.Name, ErrCrashPoint)
}

// persistPages makes the given dirty pages durable one at a time, charging
// one durability step each, in ascending page order so armed runs replay
// the count run exactly. It returns ErrCrashPoint from the first blocked
// step; earlier pages stay durable — a torn flush. Caller holds d.mu.
func (d *Device) persistPages(pages []int64) error {
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pg := range pages {
		if d.cp != nil && !d.cp.step() {
			return d.crashPointErr()
		}
		bufpool.PutPage(d.shadow[pg])
		delete(d.shadow, pg)
	}
	return nil
}
