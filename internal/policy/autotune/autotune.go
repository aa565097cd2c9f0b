// Package autotune closes the loop the paper leaves open in §4
// ("Configuring Mux"): policies expose typed knobs (policy.Tunable), the
// telemetry subsystem measures the consequences, and this feedback
// controller walks the knobs toward a better operating point while the
// system serves traffic.
//
// The controller is a deliberately boring coordinate hill-climber with
// hysteresis — in the spirit of the automated tiered-storage tuners
// surveyed in PAPERS.md, and sized to be auditable rather than clever:
//
//   - Each policy round, the Policy Runner feeds it a Sample of cumulative
//     telemetry counters; the tuner diffs against the previous round, so
//     every decision is made on interval-delta signals (fast-tier read
//     fraction, SCM cache hit ratio, p99 virtual read latency, migration
//     churn bytes), never lifetime averages that drown change.
//   - It probes ONE knob per round by one Param.Step, waits a round for
//     the effect to land, and keeps the change only if the weighted
//     objective improved by at least the hysteresis margin; otherwise it
//     reverts and rotates to the next (knob, direction) pair. Accepted
//     scores are therefore monotone by construction, and a knob that
//     oscillates the objective is rejected on both directions and left
//     alone.
//   - Safety is the policy's job, not trust in the controller: SetParam
//     clamps every value into the Param's hard range (policy/params.go),
//     so the tuner can never wedge migration no matter how wrong its
//     objective weights are. When a full rotation of probes is rejected
//     the tuner declares convergence and holds — it only wakes back up if
//     the score later degrades past twice the hysteresis margin (workload
//     shift).
//
// Every action lands in a bounded decision log (Log), rendered by `muxsh
// autotune log` and summarized in the mux_autotune_* metric families.
package autotune

import (
	"fmt"
	"sync"
	"time"

	"muxfs/internal/policy"
	"muxfs/internal/telemetry"
)

// Sample carries the cumulative telemetry counters one policy round ends
// with. The tuner keeps the previous sample and scores the interval
// between them; callers never need to compute deltas.
type Sample struct {
	// Now is the virtual clock at sampling time.
	Now time.Duration

	// FastReads / TotalReads count downward device reads served by the
	// fastest tier vs all tiers (cumulative). Their interval ratio is the
	// placement-quality signal: hot data on the fast tier keeps it high.
	FastReads  int64
	TotalReads int64

	// CacheHits / CacheMisses are the SCM cache counters (cumulative,
	// both zero when no cache is attached).
	CacheHits   int64
	CacheMisses int64

	// MovedBytes counts migration bytes (cumulative) — the churn cost of
	// whatever the current knobs make the planner do.
	MovedBytes int64

	// ReadLat is the cumulative virtual-time read-latency histogram
	// (per-tenant attribution merged when tenants are registered; the
	// zero snapshot when not). Interval p99 feeds the objective.
	ReadLat telemetry.HistSnapshot

	// FastUsed / FastCap report the fastest tier's occupancy (gauge, not
	// diffed) — logged for the audit trail.
	FastUsed int64
	FastCap  int64
}

// Objective weights: score = hitWeight·fastReadFrac
// + cacheWeight·cacheHitRatio − latWeight·p99Millis
// − churnWeight·(movedBytes/256MiB).
const (
	hitWeight   = 1.0
	cacheWeight = 0.25
	latWeight   = 0.15 // per millisecond of p99
	churnWeight = 0.25 // per 256 MiB moved per round
)

// Options configures the controller. Zero values take the defaults.
type Options struct {
	// Hysteresis is the minimum relative score improvement that accepts a
	// probe (default 0.02 = 2%). Larger values damp oscillation harder.
	Hysteresis float64

	// MinIntervalOps skips tuning on intervals with fewer scored ops
	// (reads + cache lookups) than this — idle rounds carry no signal
	// (default 16).
	MinIntervalOps int64

	// DecideEvery makes the controller act only on every Nth Step call,
	// letting telemetry accrue across the skipped rounds so each scored
	// interval spans N policy rounds (default 1). Policies whose planner
	// works in bursts — e.g. an LRU drain that only fires every few
	// rounds, once refill crosses the watermark — impose a sawtooth on
	// per-round signals that a per-round verdict mistakes for the probe's
	// effect; spanning the burst period averages it out.
	DecideEvery int

	// LogSize bounds the decision log ring (default 256).
	LogSize int
}

func (o Options) withDefaults() Options {
	if o.Hysteresis <= 0 {
		o.Hysteresis = 0.02
	}
	if o.MinIntervalOps <= 0 {
		o.MinIntervalOps = 16
	}
	if o.DecideEvery <= 0 {
		o.DecideEvery = 1
	}
	if o.LogSize <= 0 {
		o.LogSize = 256
	}
	return o
}

// Decision is one audited controller action.
type Decision struct {
	Round  int64         `json:"round"`
	Now    time.Duration `json:"vnow_ns"`
	Action string        `json:"action"` // warmup | idle | probe | accept | revert | hold | wake | freeze | unfreeze
	Param  string        `json:"param,omitempty"`
	From   float64       `json:"from,omitempty"`
	To     float64       `json:"to,omitempty"`

	Score      float64       `json:"score"`
	HitRatio   float64       `json:"fast_read_frac"`
	CacheRatio float64       `json:"cache_hit_ratio"`
	P99        time.Duration `json:"p99_ns"`
	ChurnBytes int64         `json:"churn_bytes"`
	FastUsed   int64         `json:"fast_used"`
	Note       string        `json:"note,omitempty"`
}

// Status is the controller's summary for muxsh and /metrics.
type Status struct {
	Policy    string         `json:"policy"`
	Rounds    int64          `json:"rounds"`
	Accepted  int64          `json:"accepted"`
	Reverted  int64          `json:"reverted"`
	Holds     int64          `json:"holds"`
	Idle      int64          `json:"idle"`
	Converged bool           `json:"converged"`
	Frozen    bool           `json:"frozen"`
	BestScore float64        `json:"best_score"`
	LastScore float64        `json:"last_score"`
	Params    []policy.Param `json:"params"`
	Last      Decision       `json:"last_decision"`
}

// probe is the in-flight knob change awaiting its verdict.
type probe struct {
	name     string
	old, new float64
}

// Tuner is the feedback controller. One Tuner drives one Tunable policy;
// Step is called by the Policy Runner after each round. Safe for
// concurrent use (Step serializes internally; Log/Status may be called
// from other goroutines).
type Tuner struct {
	mu   sync.Mutex
	pol  policy.Tunable
	name string
	opts Options

	// Coordinate-descent cursor: which param, which direction.
	names []string
	idx   int
	dir   float64

	pending     *probe
	best        float64
	haveBest    bool
	misses      int // consecutive rejected probes
	converged   bool
	frozen      bool
	sinceDecide int // Step calls since the last decision (DecideEvery)

	rounds, accepted, reverted, holds, idle int64
	lastScore                               float64
	last                                    Decision

	prev     Sample
	havePrev bool

	log      []Decision
	logStart int
	logLen   int
}

// New builds a Tuner for pol, which must implement policy.Tunable and
// expose at least one param.
func New(pol policy.Policy, opts Options) (*Tuner, error) {
	t, ok := pol.(policy.Tunable)
	if !ok {
		return nil, fmt.Errorf("autotune: policy %q exposes no tunable params", pol.Name())
	}
	params := t.Params()
	if len(params) == 0 {
		return nil, fmt.Errorf("autotune: policy %q exposes no tunable params", pol.Name())
	}
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.Name
	}
	return &Tuner{
		pol:   t,
		name:  pol.Name(),
		opts:  opts.withDefaults(),
		names: names,
		dir:   1,
	}, nil
}

// margin is the absolute score improvement a probe must clear.
func (t *Tuner) margin() float64 {
	base := t.best
	if base < 0 {
		base = -base
	}
	if base < 0.05 {
		base = 0.05
	}
	return t.opts.Hysteresis * base
}

// Step scores the interval since the previous call and advances the
// climb: verdict on the pending probe, then (unless converged or idle)
// the next probe. Returns the decision it logged.
func (t *Tuner) Step(s Sample) Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rounds++

	if t.frozen {
		t.holds++
		return Decision{Round: t.rounds, Now: s.Now, Action: "hold", Note: "frozen"}
	}

	if !t.havePrev {
		t.prev, t.havePrev = s, true
		return t.record(Decision{Round: t.rounds, Now: s.Now, Action: "warmup", Note: "first sample; interval deltas start next round"})
	}

	// DecideEvery > 1: let the interval keep accruing (prev untouched) and
	// act only on the Nth round. Not logged — nothing was decided.
	t.sinceDecide++
	if t.sinceDecide < t.opts.DecideEvery {
		return Decision{Round: t.rounds, Now: s.Now, Action: "gather"}
	}
	t.sinceDecide = 0

	dFast := s.FastReads - t.prev.FastReads
	dTotal := s.TotalReads - t.prev.TotalReads
	dHits := s.CacheHits - t.prev.CacheHits
	dMiss := s.CacheMisses - t.prev.CacheMisses
	dMoved := s.MovedBytes - t.prev.MovedBytes
	var ih telemetry.HistSnapshot
	if s.ReadLat.Counts != nil { // zero snapshot = no latency series wired
		ih = s.ReadLat.Delta(t.prev.ReadLat)
	}
	t.prev = s

	if dTotal+dHits+dMiss < t.opts.MinIntervalOps {
		t.idle++
		// A pending probe stays pending: an idle interval says nothing
		// about it either way.
		return t.record(Decision{Round: t.rounds, Now: s.Now, Action: "idle",
			Note: fmt.Sprintf("%d scored ops < %d; skipping", dTotal+dHits+dMiss, t.opts.MinIntervalOps)})
	}

	d := Decision{Round: t.rounds, Now: s.Now, ChurnBytes: dMoved, FastUsed: s.FastUsed}
	if dTotal > 0 {
		d.HitRatio = float64(dFast) / float64(dTotal)
	}
	if dHits+dMiss > 0 {
		d.CacheRatio = float64(dHits) / float64(dHits+dMiss)
	}
	d.P99 = time.Duration(ih.Quantile(0.99))
	d.Score = hitWeight*d.HitRatio +
		cacheWeight*d.CacheRatio -
		latWeight*float64(d.P99)/float64(time.Millisecond) -
		churnWeight*float64(dMoved)/float64(256<<20)
	t.lastScore = d.Score

	// Verdict on the pending probe.
	if p := t.pending; p != nil {
		t.pending = nil
		if d.Score >= t.best+t.margin() {
			t.best = d.Score
			t.misses = 0
			t.accepted++
			d.Action, d.Param, d.From, d.To = "accept", p.name, p.old, p.new
			d.Note = "kept; continuing same direction"
			return t.record(d)
		}
		// Revert and rotate to the next (param, direction) pair.
		_ = t.pol.SetParam(p.name, p.old)
		t.reverted++
		t.misses++
		if t.dir > 0 {
			t.dir = -1
		} else {
			t.dir = 1
			t.idx = (t.idx + 1) % len(t.names)
		}
		if t.misses >= 2*len(t.names) {
			t.converged = true
		}
		d.Action, d.Param, d.From, d.To = "revert", p.name, p.new, p.old
		d.Note = fmt.Sprintf("score %.4f below best %.4f + margin", d.Score, t.best)
		return t.record(d)
	}

	if !t.haveBest {
		t.best, t.haveBest = d.Score, true
		d.Action = "baseline"
		d.Note = "objective baseline established"
		// Fall through to issue the first probe next round keeps the log
		// simpler: one action per round.
		return t.record(d)
	}

	if t.converged {
		if d.Score < t.best-2*t.margin() {
			// Workload may have shifted under the settled knobs: resume
			// probing. best decays only halfway toward the observed score —
			// a genuine regime change walks it down geometrically across
			// repeated wakes, while a single noisy dip cannot drag the
			// acceptance bar low enough to ratify a downhill move.
			t.converged = false
			t.misses = 0
			t.best = (t.best + d.Score) / 2
			d.Action = "wake"
			d.Note = "score degraded past 2× margin; best decayed halfway, resuming probes"
			return t.record(d)
		}
		t.holds++
		d.Action = "hold"
		d.Note = "converged"
		return t.record(d)
	}

	// Issue the next probe: the first (param, direction) whose step
	// actually changes the value (a knob pinned at its clamp rotates on).
	for tries := 0; tries < 2*len(t.names); tries++ {
		pr := t.paramByName(t.names[t.idx])
		if pr == nil {
			t.idx = (t.idx + 1) % len(t.names)
			continue
		}
		next := pr.Value + t.dir*pr.Step
		if next < pr.Min {
			next = pr.Min
		}
		if next > pr.Max {
			next = pr.Max
		}
		if next == pr.Value {
			if t.dir > 0 {
				t.dir = -1
			} else {
				t.dir = 1
				t.idx = (t.idx + 1) % len(t.names)
			}
			continue
		}
		if err := t.pol.SetParam(pr.Name, next); err != nil {
			t.idx = (t.idx + 1) % len(t.names)
			continue
		}
		t.pending = &probe{name: pr.Name, old: pr.Value, new: next}
		d.Action, d.Param, d.From, d.To = "probe", pr.Name, pr.Value, next
		return t.record(d)
	}
	// Every knob is pinned at a clamp in both directions: nothing to do.
	t.converged = true
	t.holds++
	d.Action = "hold"
	d.Note = "all params at clamps"
	return t.record(d)
}

// paramByName re-enumerates and finds one param (its Value may have moved
// under quota retables).
func (t *Tuner) paramByName(name string) *policy.Param {
	for _, p := range t.pol.Params() {
		if p.Name == name {
			return &p
		}
	}
	return nil
}

// record appends to the ring and returns d.
func (t *Tuner) record(d Decision) Decision {
	t.last = d
	if len(t.log) < t.opts.LogSize {
		t.log = append(t.log, d)
		t.logLen = len(t.log)
		return d
	}
	t.log[t.logStart] = d
	t.logStart = (t.logStart + 1) % t.opts.LogSize
	return d
}

// Log returns the decision ring, oldest first.
func (t *Tuner) Log() []Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Decision, 0, t.logLen)
	for i := 0; i < t.logLen; i++ {
		out = append(out, t.log[(t.logStart+i)%len(t.log)])
	}
	return out
}

// Status summarizes the controller.
func (t *Tuner) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Status{
		Policy:    t.name,
		Rounds:    t.rounds,
		Accepted:  t.accepted,
		Reverted:  t.reverted,
		Holds:     t.holds,
		Idle:      t.idle,
		Converged: t.converged,
		Frozen:    t.frozen,
		BestScore: t.best,
		LastScore: t.lastScore,
		Params:    t.pol.Params(),
		Last:      t.last,
	}
}

// Collect emits Status as the mux_autotune_* families. Scores and param
// values are fixed-point micro-units (value × 1e6) so the float objective
// and fractional knobs survive the integer series type.
func (t *Tuner) Collect() []telemetry.FamilySnapshot {
	st := t.Status()
	c, g, v := telemetry.CounterFamily, telemetry.GaugeFamily, telemetry.Sample
	micro := func(f float64) int64 { return int64(f * 1e6) }
	flag := func(b bool) telemetry.SeriesSnapshot {
		if b {
			return v(1)
		}
		return v(0)
	}
	bound := func(b string) telemetry.Label { return telemetry.Label{Key: "bound", Value: b} }
	var params, bounds []telemetry.SeriesSnapshot
	for _, p := range st.Params {
		name := telemetry.Label{Key: "param", Value: p.Name}
		params = append(params, v(micro(p.Value), name, telemetry.Label{Key: "kind", Value: p.Kind.String()}))
		bounds = append(bounds, v(micro(p.Min), name, bound("min")), v(micro(p.Max), name, bound("max")),
			v(micro(p.Step), name, bound("step")))
	}
	d := st.Last
	field := func(f string, x int64) telemetry.SeriesSnapshot {
		return v(x, telemetry.Label{Key: "action", Value: d.Action}, telemetry.Label{Key: "param", Value: d.Param},
			telemetry.Label{Key: "field", Value: f})
	}
	return []telemetry.FamilySnapshot{
		c("mux_autotune_rounds_total", "Controller rounds (Policy Runner samples fed to the autotuner).", v(st.Rounds)),
		c("mux_autotune_accepted_total", "Probes kept: the objective improved past the hysteresis margin.", v(st.Accepted)),
		c("mux_autotune_reverted_total", "Probes rolled back: no improvement.", v(st.Reverted)),
		c("mux_autotune_holds_total", "Rounds held after convergence.", v(st.Holds)),
		c("mux_autotune_idle_total", "Rounds skipped for lack of traffic.", v(st.Idle)),
		g("mux_autotune_converged", "1 when the hill climb has settled.", flag(st.Converged)),
		g("mux_autotune_frozen", "1 while the knobs are pinned (Freeze).", flag(st.Frozen)),
		g("mux_autotune_best_score_micro", "Best accepted objective score × 1e6.", v(micro(st.BestScore))),
		g("mux_autotune_last_score_micro", "Most recent interval's objective score × 1e6.", v(micro(st.LastScore))),
		g("mux_autotune_param_micro", "Live tunable-param values × 1e6, by param name.", params...),
		g("mux_autotune_param_bound_micro", "Tunable-param clamps and probe step × 1e6, by param name.", bounds...),
		g("mux_autotune_last_decision", "The latest decision-log entry, one series per field (_micro fields × 1e6).",
			field("round", d.Round), field("vnow_ns", int64(d.Now)),
			field("from_micro", micro(d.From)), field("to_micro", micro(d.To)),
			field("score_micro", micro(d.Score)), field("fast_read_frac_micro", micro(d.HitRatio)),
			field("cache_hit_ratio_micro", micro(d.CacheRatio)), field("p99_ns", int64(d.P99)),
			field("churn_bytes", d.ChurnBytes), field("fast_used_bytes", d.FastUsed)),
	}
}

// Freeze reverts any in-flight probe and pins the knobs: subsequent Steps
// hold without sampling or probing until Unfreeze. Operators use it to
// carry a known-good configuration through a measurement or maintenance
// window without giving up the tuner's state (`muxsh autotune freeze`).
func (t *Tuner) Freeze() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return
	}
	if p := t.pending; p != nil {
		t.pending = nil
		_ = t.pol.SetParam(p.name, p.old)
	}
	t.frozen = true
	t.record(Decision{Round: t.rounds, Now: t.prev.Now, Action: "freeze", Note: "knobs pinned; probing suspended"})
}

// Unfreeze resumes the climb. The next Step takes a fresh warmup sample:
// counters drifted for the whole frozen span, and a delta across it would
// be scored as one giant interval.
func (t *Tuner) Unfreeze() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.frozen {
		return
	}
	t.frozen = false
	t.havePrev = false
	t.sinceDecide = 0
	t.record(Decision{Round: t.rounds, Now: t.prev.Now, Action: "unfreeze", Note: "probing resumed"})
}

// Converged reports whether the climb has settled.
func (t *Tuner) Converged() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.converged
}
