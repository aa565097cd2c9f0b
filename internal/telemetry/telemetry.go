// Package telemetry is Mux's low-overhead runtime observability layer: a
// registry of striped atomic counters, gauges, and log-bucketed latency
// histograms, plus a fixed-size ring of trace records for slow or failed
// operations.
//
// Design constraints, in order:
//
//   - The hot path never takes a lock. Counter.Add and Histogram.Record are
//     a handful of atomic adds on pre-resolved handles; the registry mutex
//     guards only registration, snapshotting, and reset.
//   - Counters are striped across padded cache lines, indexed by a cheap
//     per-goroutine stack-address hash, so concurrent recorders from many
//     goroutines don't fight over one line. Histograms spread naturally
//     across their buckets and stripe only the sum.
//   - Everything is wall-clock. Telemetry never touches the simulated
//     clock, so enabling it cannot perturb a virtual-time experiment: E1–E8
//     results stay byte-identical with telemetry on or off.
//
// A layer that already keeps its own counters (the stripe tier, the RPC
// pools, the namespace server, the autotuner) does not mirror them into
// instruments: it implements Collector and emits its families at scrape
// time, and Snapshot merges them with the registered instruments.
//
// The package is standalone — every layer instruments itself against it,
// cmd/muxd exports it over HTTP (Prometheus text + JSON), and muxsh
// renders it.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// stripes is the number of padded cells a counter spreads across. Power of
// two so the stripe hash is a mask.
const stripes = 16

// paddedCell is one counter stripe, padded to its own cache line so
// neighboring stripes never false-share.
type paddedCell struct {
	v atomic.Int64
	_ [56]byte
}

// stripeIdx picks a stripe from the address of a stack variable. Goroutine
// stacks are distinct allocations, so concurrent goroutines land on
// different stripes with high probability, at the cost of a shift — no
// shared state, no per-call randomness.
func stripeIdx() int {
	var x byte
	return int((uintptr(unsafe.Pointer(&x)) >> 10) & (stripes - 1))
}

// Counter is a monotonically increasing striped counter.
type Counter struct {
	cells [stripes]paddedCell
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	c.cells[stripeIdx()].v.Add(d)
}

// Value sums the stripes. The sum is not a point-in-time atomic snapshot —
// adds racing the read may or may not be included — which is the usual
// contract for monitoring counters.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

func (c *Counter) reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value loads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// metricKind discriminates families for export.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry owns metric families and the trace ring. Registration is
// idempotent: asking for the same name+labels returns the existing handle,
// so instrument sites may re-resolve freely.
type Registry struct {
	enabled atomic.Bool

	mu      sync.Mutex
	fams    map[string]*family
	cols    map[int]func() []FamilySnapshot
	nextCol int

	// Trace is the slow/failed-operation ring (trace.go).
	Trace *Ring
}

// NewRegistry returns an enabled registry with a trace ring of the given
// capacity (0 takes DefaultRingSize).
func NewRegistry(ringSize int) *Registry {
	r := &Registry{
		fams:  map[string]*family{},
		cols:  map[int]func() []FamilySnapshot{},
		Trace: NewRing(ringSize),
	}
	r.enabled.Store(true)
	return r
}

// Enabled reports whether recording is on. Instrument sites consult this
// once per operation and skip all clock reads and atomics when off.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// SetEnabled toggles recording at runtime.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// labelsEqual reports whether two sorted label sets match.
func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortLabels(ls []Label) []Label {
	out := make([]Label, len(ls))
	copy(out, ls)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup finds or creates a family+series; build constructs the instrument
// on first sight.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, build func(*series)) *series {
	ls := sortLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.fams[name] = f
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, ls) {
			return s
		}
	}
	s := &series{labels: ls}
	build(s)
	f.series = append(f.series, s)
	return s
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels, func(s *series) { s.ctr = &Counter{} })
	return s.ctr
}

// Gauge returns the gauge registered under name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}

// Histogram returns the histogram registered under name+labels.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels, func(s *series) { s.hist = NewHistogram() })
	return s.hist
}

// Reset zeroes every registered instrument and clears the trace ring.
// Handles held by instrument sites stay valid — reset races recording
// benignly (a concurrent Add may land before or after the zeroing).
func (r *Registry) Reset() {
	r.mu.Lock()
	for _, f := range r.fams {
		for _, s := range f.series {
			switch {
			case s.ctr != nil:
				s.ctr.reset()
			case s.gauge != nil:
				s.gauge.reset()
			case s.hist != nil:
				s.hist.reset()
			}
		}
	}
	r.mu.Unlock()
	r.Trace.Reset()
}

// FamilySnapshot is one exported metric family.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   string
	Series []SeriesSnapshot
}

// SeriesSnapshot is one labeled series value at snapshot time.
type SeriesSnapshot struct {
	Labels []Label
	// Value carries counter/gauge values; Hist is set for histograms.
	Value int64
	Hist  *HistSnapshot
}

// Collector is a metrics source computed at scrape time from counters its
// owner already keeps. Collected families are never reset or gated by
// Enabled: they read the owner's own state.
type Collector interface {
	Collect() []FamilySnapshot
}

// Register adds collect (a Collector's Collect) to every later Snapshot;
// the returned function removes it again.
func (r *Registry) Register(collect func() []FamilySnapshot) (unregister func()) {
	r.mu.Lock()
	id := r.nextCol
	r.nextCol++
	r.cols[id] = collect
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.cols, id)
		r.mu.Unlock()
	}
}

// CounterFamily builds a collected counter family.
func CounterFamily(name, help string, series ...SeriesSnapshot) FamilySnapshot {
	return FamilySnapshot{Name: name, Help: help, Kind: kindCounter.String(), Series: series}
}

// GaugeFamily builds a collected gauge family.
func GaugeFamily(name, help string, series ...SeriesSnapshot) FamilySnapshot {
	return FamilySnapshot{Name: name, Help: help, Kind: kindGauge.String(), Series: series}
}

// Sample is one counter or gauge series.
func Sample(v int64, labels ...Label) SeriesSnapshot {
	return SeriesSnapshot{Labels: labels, Value: v}
}

// Columns is a table of families filled row by row, one family per
// column: the shape of per-tier or per-node stats.
type Columns []FamilySnapshot

// Row adds vals[i], labeled ls, to family i.
func (c Columns) Row(vals []int64, ls ...Label) {
	for i := range c {
		c[i].Series = append(c[i].Series, Sample(vals[i], ls...))
	}
}

// WithLabels adds ls to every series of fams, in place, and returns fams:
// how an owner that collects from the parts it is built of (a Mux from
// its tiers, a stripe set from its nodes) tells those parts apart.
func WithLabels(fams []FamilySnapshot, ls ...Label) []FamilySnapshot {
	for _, f := range fams {
		for i := range f.Series {
			f.Series[i].Labels = append(append([]Label(nil), f.Series[i].Labels...), ls...)
		}
	}
	return fams
}

// Snapshot captures every family — registered instruments and collected
// families alike — sorted by name, each series in label order: the input
// to both the Prometheus and JSON encoders. Families of one name from
// several sources merge into one, so each name is exported once.
func (r *Registry) Snapshot() []FamilySnapshot {
	// Copy series slices under the lock; instrument reads and collectors
	// run after it.
	type famCopy struct {
		f      *family
		series []*series
	}
	r.mu.Lock()
	copies := make([]famCopy, 0, len(r.fams))
	for _, f := range r.fams {
		copies = append(copies, famCopy{f: f, series: append([]*series(nil), f.series...)})
	}
	cols := make([]func() []FamilySnapshot, 0, len(r.cols))
	for _, c := range r.cols {
		cols = append(cols, c)
	}
	r.mu.Unlock()

	var out []FamilySnapshot
	byName := map[string]int{} // index into out
	add := func(f FamilySnapshot) {
		if i, ok := byName[f.Name]; ok {
			out[i].Series = append(out[i].Series, f.Series...)
			return
		}
		byName[f.Name] = len(out)
		out = append(out, f)
	}
	for _, fc := range copies {
		fs := FamilySnapshot{Name: fc.f.name, Help: fc.f.help, Kind: fc.f.kind.String()}
		for _, s := range fc.series {
			ss := SeriesSnapshot{Labels: s.labels}
			switch {
			case s.ctr != nil:
				ss.Value = s.ctr.Value()
			case s.gauge != nil:
				ss.Value = s.gauge.Value()
			case s.hist != nil:
				h := s.hist.Snapshot()
				ss.Hist = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		add(fs)
	}
	for _, collect := range cols {
		for _, f := range collect() {
			for i := range f.Series {
				f.Series[i].Labels = sortLabels(f.Series[i].Labels)
			}
			add(f)
		}
	}
	for _, f := range out {
		sort.Slice(f.Series, func(i, j int) bool {
			return labelsLess(f.Series[i].Labels, f.Series[j].Labels)
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func labelsLess(a, b []Label) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Key != b[i].Key {
			return a[i].Key < b[i].Key
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}
