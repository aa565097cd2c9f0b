package autotune_test

import (
	"strings"
	"testing"
	"time"

	"muxfs/internal/policy"
	"muxfs/internal/policy/autotune"
	"muxfs/internal/telemetry"
)

// fakePol is a one-knob Tunable whose "workload response" the test
// controls exactly: hit ratio peaks when x sits at a target value.
type fakePol struct {
	x              float64
	min, max, step float64
}

func (f *fakePol) Name() string                                      { return "fake" }
func (f *fakePol) PlaceWrite(policy.WriteCtx, []policy.TierInfo) int { return 0 }
func (f *fakePol) PlanMigrations([]policy.TierInfo, []policy.FileStat, time.Duration) []policy.Move {
	return nil
}
func (f *fakePol) Params() []policy.Param {
	return []policy.Param{{Name: "x", Kind: policy.KindScalar, Value: f.x, Min: f.min, Max: f.max, Step: f.step}}
}
func (f *fakePol) SetParam(name string, v float64) error {
	if name != "x" {
		return policy.ErrUnknownParam
	}
	if v < f.min {
		v = f.min
	}
	if v > f.max {
		v = f.max
	}
	f.x = v
	return nil
}

// hitFor maps knob position to fast-read fraction: a clean unimodal
// response with its peak at target.
func hitFor(x, target float64) float64 {
	d := x - target
	if d < 0 {
		d = -d
	}
	h := 0.95 - 0.08*d
	if h < 0.05 {
		h = 0.05
	}
	return h
}

// env simulates rounds: each interval serves 1000 reads whose fast
// fraction reflects the knob value in force DURING the interval (the
// one-round probe lag the controller is built around).
type env struct {
	pol    *fakePol
	target float64
	now    time.Duration
	total  int64
	fast   int64
	lat    *telemetry.Histogram
}

func (e *env) sample() autotune.Sample {
	e.now += time.Second
	hits := int64(1000 * hitFor(e.pol.x, e.target))
	e.total += 1000
	e.fast += hits
	// Misses cost 2 ms of virtual latency, hits 10 µs.
	for i := int64(0); i < hits; i++ {
		e.lat.Record(int64(10 * time.Microsecond))
	}
	for i := hits; i < 1000; i++ {
		e.lat.Record(int64(2 * time.Millisecond))
	}
	return autotune.Sample{
		Now: e.now, FastReads: e.fast, TotalReads: e.total,
		ReadLat: e.lat.Snapshot(),
	}
}

func TestNewRejectsNonTunable(t *testing.T) {
	if _, err := autotune.New(policy.Pinned{Tier: 0}, autotune.Options{}); err == nil {
		t.Fatal("New accepted a policy with no params")
	}
}

func TestClimbConvergesAndLogIsMonotone(t *testing.T) {
	pol := &fakePol{x: 2, min: 0, max: 10, step: 1}
	tn, err := autotune.New(pol, autotune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{pol: pol, target: 6, lat: telemetry.NewHistogram()}

	for i := 0; i < 40 && !tn.Converged(); i++ {
		tn.Step(e.sample())
	}
	if !tn.Converged() {
		t.Fatalf("tuner did not converge; status %+v", tn.Status())
	}
	// The climb must land within one step of the optimum.
	if pol.x < 5 || pol.x > 7 {
		t.Fatalf("converged knob x = %v, want near 6", pol.x)
	}

	// Audit trail: accepted scores are strictly increasing — the
	// monotone-improvement property E14 gates on.
	var accepted []float64
	var sawProbe, sawRevert bool
	for _, d := range tn.Log() {
		switch d.Action {
		case "accept":
			accepted = append(accepted, d.Score)
		case "probe":
			sawProbe = true
		case "revert":
			sawRevert = true
		}
	}
	if len(accepted) < 2 {
		t.Fatalf("expected several accepted probes, log: %+v", tn.Log())
	}
	for i := 1; i < len(accepted); i++ {
		if accepted[i] <= accepted[i-1] {
			t.Fatalf("accepted scores not monotone: %v", accepted)
		}
	}
	if !sawProbe || !sawRevert {
		t.Fatal("log missing probe/revert actions")
	}

	// Converged means held: more rounds must not move the knob (no
	// oscillation).
	settled := pol.x
	for i := 0; i < 5; i++ {
		d := tn.Step(e.sample())
		if d.Action != "hold" {
			t.Fatalf("post-convergence action = %q", d.Action)
		}
	}
	if pol.x != settled {
		t.Fatalf("knob moved after convergence: %v -> %v", settled, pol.x)
	}

	st := tn.Status()
	if st.Policy != "fake" || !st.Converged || st.Accepted == 0 || st.Reverted == 0 {
		t.Fatalf("status %+v", st)
	}
}

func TestWakesOnWorkloadShift(t *testing.T) {
	pol := &fakePol{x: 5, min: 0, max: 10, step: 1}
	tn, err := autotune.New(pol, autotune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{pol: pol, target: 5, lat: telemetry.NewHistogram()}
	for i := 0; i < 30 && !tn.Converged(); i++ {
		tn.Step(e.sample())
	}
	if !tn.Converged() {
		t.Fatalf("no convergence at optimum start; status %+v", tn.Status())
	}

	// Shift the workload: the old knob is now badly wrong, score tanks.
	e.target = 1
	var woke bool
	for i := 0; i < 40; i++ {
		d := tn.Step(e.sample())
		if d.Action == "wake" {
			woke = true
			break
		}
	}
	if !woke {
		t.Fatalf("tuner never woke after workload shift; log %+v", tn.Log())
	}
	// And it re-climbs toward the new optimum. The climb is not a straight
	// walk: best decays only halfway per wake (noise protection), so the
	// tuner cycles converge→wake→probe a few times before the acceptance
	// bar drops to the new regime's reachable scores. Run a fixed budget
	// rather than stopping at the first (transient) convergence.
	for i := 0; i < 100; i++ {
		tn.Step(e.sample())
	}
	if pol.x > 2.5 {
		t.Fatalf("post-shift knob x = %v, want near 1", pol.x)
	}
}

func TestIdleIntervalsAreSkipped(t *testing.T) {
	pol := &fakePol{x: 2, min: 0, max: 10, step: 1}
	tn, err := autotune.New(pol, autotune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warmup, then two idle samples (no ops at all).
	tn.Step(autotune.Sample{Now: time.Second})
	for i := 0; i < 2; i++ {
		d := tn.Step(autotune.Sample{Now: time.Duration(i+2) * time.Second})
		if d.Action != "idle" {
			t.Fatalf("empty interval action = %q", d.Action)
		}
	}
	if pol.x != 2 {
		t.Fatalf("idle rounds moved the knob: %v", pol.x)
	}
	if st := tn.Status(); st.Idle != 2 {
		t.Fatalf("idle count = %d", st.Idle)
	}
}

func TestDecideEverySpansRounds(t *testing.T) {
	pol := &fakePol{x: 2, min: 0, max: 10, step: 1}
	tn, err := autotune.New(pol, autotune.Options{DecideEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{pol: pol, target: 6, lat: telemetry.NewHistogram()}

	// Warmup, then rounds: only every 3rd Step may decide; the rest gather.
	tn.Step(e.sample())
	var decided, gathered int
	for i := 0; i < 30; i++ {
		switch d := tn.Step(e.sample()); d.Action {
		case "gather":
			gathered++
			if d.Param != "" || d.Score != 0 {
				t.Fatalf("gather round carried a verdict: %+v", d)
			}
		default:
			decided++
		}
	}
	if decided != 10 || gathered != 20 {
		t.Fatalf("decided=%d gathered=%d, want 10/30 decisions", decided, gathered)
	}
	// Gather rounds are not logged — the audit trail holds decisions only.
	for _, d := range tn.Log() {
		if d.Action == "gather" {
			t.Fatalf("gather round leaked into the log: %+v", d)
		}
	}
	// The climb still works on the longer intervals.
	if pol.x <= 2 {
		t.Fatalf("knob never climbed: x = %v", pol.x)
	}
}

func TestFreezePinsKnobsAndRevertsProbe(t *testing.T) {
	pol := &fakePol{x: 2, min: 0, max: 10, step: 1}
	tn, err := autotune.New(pol, autotune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{pol: pol, target: 6, lat: telemetry.NewHistogram()}

	// Run until a probe is in flight (knob displaced from its baseline).
	var before float64
	for i := 0; i < 20; i++ {
		d := tn.Step(e.sample())
		if d.Action == "probe" {
			before = d.From
			break
		}
	}
	tn.Freeze()
	if pol.x != before {
		t.Fatalf("freeze left the probe applied: x = %v, want %v", pol.x, before)
	}
	if st := tn.Status(); !st.Frozen {
		t.Fatal("status not frozen")
	}
	// Frozen steps hold and never move the knob.
	for i := 0; i < 5; i++ {
		if d := tn.Step(e.sample()); d.Action != "hold" {
			t.Fatalf("frozen step action = %q", d.Action)
		}
	}
	if pol.x != before {
		t.Fatalf("frozen steps moved the knob: x = %v", pol.x)
	}

	// Unfreeze resumes: first step is a fresh warmup (counters drifted all
	// through the frozen span), then probing continues.
	tn.Unfreeze()
	if d := tn.Step(e.sample()); d.Action != "warmup" {
		t.Fatalf("first post-unfreeze action = %q, want warmup", d.Action)
	}
	var probed bool
	for i := 0; i < 10 && !probed; i++ {
		probed = tn.Step(e.sample()).Action == "probe"
	}
	if !probed {
		t.Fatal("tuner never probed after unfreeze")
	}
}

func TestLogRingIsBounded(t *testing.T) {
	pol := &fakePol{x: 2, min: 0, max: 10, step: 1}
	tn, err := autotune.New(pol, autotune.Options{LogSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{pol: pol, target: 6, lat: telemetry.NewHistogram()}
	for i := 0; i < 50; i++ {
		tn.Step(e.sample())
	}
	log := tn.Log()
	if len(log) != 8 {
		t.Fatalf("ring length = %d, want 8", len(log))
	}
	// Oldest-first ordering: rounds strictly increase.
	for i := 1; i < len(log); i++ {
		if log[i].Round <= log[i-1].Round {
			t.Fatalf("ring out of order: %+v", log)
		}
	}
	if log[len(log)-1].Round != 50 {
		t.Fatalf("last logged round = %d, want 50", log[len(log)-1].Round)
	}
}

func TestRealLRUIsTunable(t *testing.T) {
	// Smoke the controller against a real built-in: it must probe without
	// erroring and respect the policy's own clamps.
	pol := policy.DefaultLRU()
	tn, err := autotune.New(pol, autotune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := telemetry.NewHistogram()
	var total, fast int64
	for i := 0; i < 20; i++ {
		total += 500
		fast += 400
		h.Record(int64(50 * time.Microsecond))
		tn.Step(autotune.Sample{
			Now:       time.Duration(i+1) * time.Second,
			FastReads: fast, TotalReads: total, ReadLat: h.Snapshot(),
		})
	}
	for _, p := range pol.Params() {
		if p.Value < p.Min-1e-9 || p.Value > p.Max+1e-9 {
			t.Fatalf("tuned param %s = %v escaped [%v, %v]", p.Name, p.Value, p.Min, p.Max)
		}
	}
	if st := tn.Status(); !strings.Contains(st.Policy, "lru") {
		t.Fatalf("status policy = %q", st.Policy)
	}
}
