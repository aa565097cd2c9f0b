package guard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// fakeClock is a hand-advanced clock for Breaker.Now.
type fakeClock struct{ t atomic.Int64 }

func (c *fakeClock) now() time.Duration      { return time.Duration(c.t.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

func newBreaker(clk *fakeClock) *Breaker {
	return &Breaker{Threshold: 3, Cooldown: time.Second, Now: clk.now}
}

func tripByFaults(t *testing.T, b *Breaker) {
	t.Helper()
	for i := 0; i < b.Threshold; i++ {
		if !b.Allow() {
			t.Fatalf("fault %d refused before the threshold", i)
		}
		opened, _ := b.Record(Fault, errBoom)
		if opened != (i == b.Threshold-1) {
			t.Fatalf("fault %d: opened=%v", i, opened)
		}
	}
	if b.State() != Open {
		t.Fatalf("state %v after %d faults, want open", b.State(), b.Threshold)
	}
}

func TestBreakerOpensProbesAndCloses(t *testing.T) {
	var clk fakeClock
	b := newBreaker(&clk)
	tripByFaults(t, b)
	if b.Allow() || b.Available() {
		t.Fatal("open breaker admitted an op inside the cooldown")
	}
	clk.advance(time.Second)
	if !b.Available() || b.State() != Open {
		t.Fatalf("Available=%v state=%v after the cooldown, want true/open (Available changes nothing)", b.Available(), b.State())
	}
	if !b.Allow() || b.State() != HalfOpen {
		t.Fatalf("state %v after the cooldown's first Allow, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused an op racing the probe")
	}
	opened, closed := b.Record(Success, nil)
	if opened || !closed || b.State() != Closed {
		t.Fatalf("probe success: opened=%v closed=%v state=%v", opened, closed, b.State())
	}
	st := b.Snapshot()
	if st.Ops != 4 || st.Faults != 3 || st.Opens != 1 || st.Consec != 0 || st.LastFault != "boom" || st.SinceOpen != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A success from an op admitted before the breaker opened must not close
// it: only a half-open probe may, after the cooldown.
func TestBreakerStragglerSuccessKeepsOpen(t *testing.T) {
	var clk fakeClock
	b := newBreaker(&clk)
	if !b.Allow() { // the straggler is admitted while closed...
		t.Fatal("closed breaker refused")
	}
	tripByFaults(t, b) // ...the breaker opens while it runs...
	opened, closed := b.Record(Success, nil)
	if opened || closed {
		t.Fatalf("straggler success: opened=%v closed=%v", opened, closed)
	}
	if b.State() != Open || b.Allow() {
		t.Fatalf("straggler success moved the breaker to %v inside the cooldown", b.State())
	}
}

func TestBreakerFailedProbeCountsAnOpen(t *testing.T) {
	var clk fakeClock
	b := newBreaker(&clk)
	tripByFaults(t, b)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after the cooldown")
	}
	opened, closed := b.Record(Fault, errBoom)
	if !opened || closed || b.State() != Open {
		t.Fatalf("failed probe: opened=%v closed=%v state=%v", opened, closed, b.State())
	}
	if st := b.Snapshot(); st.Opens != 2 {
		t.Fatalf("opens = %d after a failed probe, want 2", st.Opens)
	}
	if b.Allow() {
		t.Fatal("failed probe did not restart the cooldown")
	}
}

func TestBreakerNeutralNeitherHealsNorHarms(t *testing.T) {
	var clk fakeClock
	b := newBreaker(&clk)
	b.Record(Fault, errBoom)
	b.Record(Fault, errBoom)
	b.Record(Neutral, errors.New("not found"))
	if st := b.Snapshot(); st.Consec != 2 || st.Faults != 2 || st.Ops != 3 || st.LastFault != "boom" {
		t.Fatalf("neutral outcome changed the fault run: %+v", st)
	}
	if opened, _ := b.Record(Fault, errBoom); !opened {
		t.Fatal("third fault after a neutral op did not open the breaker")
	}
}

func TestBreakerTripNeverProbesUntilReset(t *testing.T) {
	var clk fakeClock
	b := newBreaker(&clk)
	b.Trip()
	b.Trip() // already open: not a second opening
	clk.advance(time.Hour)
	if b.Allow() || b.Available() {
		t.Fatal("tripped breaker probed after the cooldown")
	}
	if st := b.Snapshot(); st.Opens != 1 || st.SinceOpen != time.Hour {
		t.Fatalf("stats = %+v, want one opening an hour old", st)
	}
	b.Reset()
	if b.State() != Closed || !b.Allow() {
		t.Fatalf("state %v after Reset", b.State())
	}

	// Trip over an automatic opening pins it shut too.
	tripByFaults(t, b)
	b.Trip()
	clk.advance(time.Hour)
	if b.Allow() {
		t.Fatal("Trip over an automatic opening still probed")
	}
	if st := b.Snapshot(); st.Opens != 2 {
		t.Fatalf("opens = %d, want 2", st.Opens)
	}
}

func TestGate(t *testing.T) {
	g := NewGate(2)
	g.Acquire()
	g.Acquire()
	if g.InFlight() != 2 || g.Width() != 2 {
		t.Fatalf("in flight %d of %d", g.InFlight(), g.Width())
	}
	g.Release()
	if g.InFlight() != 1 {
		t.Fatalf("in flight %d after a release", g.InFlight())
	}
	var none *Gate
	none.Acquire()
	none.Release()
	if none.InFlight() != 0 || none.Width() != 0 {
		t.Fatal("nil gate is not unbounded")
	}
}

// TestGuardConcurrent runs every breaker transition and gate slot from many
// goroutines at once; under -race it checks the locking, and throughout it
// checks that the gate never admits more than its width.
func TestGuardConcurrent(t *testing.T) {
	var clk fakeClock
	b := &Breaker{Threshold: 2, Cooldown: time.Millisecond, Now: clk.now}
	g := NewGate(3)
	var holders atomic.Int64 // counted independently of the gate
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Acquire()
				if n := holders.Add(1); n > int64(g.Width()) || g.InFlight() > g.Width() {
					t.Errorf("%d holders (gate reports %d), width %d", n, g.InFlight(), g.Width())
				}
				if b.Allow() {
					switch (w + i) % 4 {
					case 0:
						b.Record(Success, nil)
					case 1, 2:
						b.Record(Fault, errBoom)
					default:
						b.Record(Neutral, nil)
					}
				}
				switch i % 97 {
				case 0:
					b.Trip()
				case 50:
					b.Reset()
				}
				clk.advance(100 * time.Microsecond)
				_ = b.Available()
				_ = b.Snapshot()
				holders.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if g.InFlight() != 0 {
		t.Fatalf("%d slots leaked", g.InFlight())
	}
	st := b.Snapshot()
	if st.Ops == 0 || st.Faults == 0 || st.Opens == 0 {
		t.Fatalf("storm recorded nothing: %+v", st)
	}
}
