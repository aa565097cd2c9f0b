package bench

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// Size selects how large an experiment runs. Only E11–E14 read it: at
// Smoke they shrink their namespaces, node counts and rounds to fit a CI
// run. Every other experiment runs the same at both sizes.
type Size int

const (
	Full Size = iota
	Smoke
)

// ParseSize maps the text of muxbench's -size flag to a Size.
func ParseSize(s string) (Size, error) {
	switch s {
	case "full":
		return Full, nil
	case "smoke":
		return Smoke, nil
	}
	return Full, fmt.Errorf("unknown size %q (want smoke or full)", s)
}

// Gates selects which of an experiment's acceptance gates Check applies.
// Each level includes the ones before it.
type Gates int

const (
	// RaceGates hold under the race detector: correctness oracles, the
	// result's shape, virtual-time claims, and the wall-clock floors loose
	// enough to survive instrumentation.
	RaceGates Gates = iota
	// TestGates add the wall-clock ratios that need an uninstrumented
	// build: E7's fan-out speedups and E10's routing ratios.
	TestGates
	// AllGates add the acceptance claims only muxbench asserts, on an
	// otherwise idle host: E9's and E13's overhead budgets, E12's scaling,
	// E13's batching and fairness, and E14's isolation and convergence.
	AllGates
)

// Result is one experiment's measurement.
type Result interface {
	// Format prints the result tables.
	Format(w io.Writer)
	// Check returns every acceptance gate at level g that the result
	// fails, joined, or nil. It is the only place an experiment's gates
	// are written.
	Check(g Gates) error
}

// Experiment is one entry of the registry.
type Experiment struct {
	Name  string // the -exp name, e.g. "e3"
	Title string // the section heading muxbench prints
	// Virtual marks the experiments whose every figure comes from the
	// virtual clock, so two runs marshal to byte-identical JSON.
	Virtual bool
	Run     func(Size) (Result, error)
}

// Experiments lists every experiment in the order muxbench runs them.
var Experiments = []Experiment{
	{Name: "e1", Title: "E1 — Figure 3a", Virtual: true, Run: fixed(RunE1)},
	{Name: "e2", Title: "E2 — Figure 3b", Virtual: true, Run: fixed(RunE2)},
	{Name: "e3", Title: "E3 — §3.2 read latency", Virtual: true, Run: fixed(RunE3)},
	{Name: "e4", Title: "E4 — §3.2 write throughput", Virtual: true, Run: fixed(RunE4)},
	{Name: "e5", Title: "E5 — parallel migration engine", Run: fixed(RunE5)},
	{Name: "e6", Title: "E6 — tier fault drill", Virtual: true, Run: fixed(RunE6)},
	{Name: "e7", Title: "E7 — data-path fan-out", Run: fixed(RunE7)},
	{Name: "e8", Title: "E8 — metadata hot-path scaling", Run: fixed(RunE8)},
	{Name: "e9", Title: "E9 — telemetry overhead", Run: fixed(RunE9)},
	{Name: "e10", Title: "E10 — mirror-read routing", Run: fixed(RunE10)},
	{Name: "e11", Title: "E11 — crash consistency", Run: sized(RunE11)},
	{Name: "e12", Title: "E12 — scale-out striped tier", Run: sized(RunE12)},
	{Name: "e13", Title: "E13 — network front end", Run: sized(RunE13)},
	{Name: "e14", Title: "E14 — multi-tenant isolation + autotuning", Run: sized(RunE14)},
	{Name: "a1", Title: "A1 — OCC vs lock migration", Virtual: true, Run: fixed(RunA1)},
	{Name: "a2", Title: "A2 — metadata affinity", Virtual: true, Run: fixed(RunA2)},
	{Name: "a3", Title: "A3 — SCM cache", Virtual: true, Run: fixed(RunA3)},
	{Name: "a4", Title: "A4 — policy comparison", Virtual: true, Run: fixed(RunA4)},
	{Name: "a5", Title: "A5 — BLT space overhead", Virtual: true, Run: fixed(RunA5)},
	{Name: "a6", Title: "A6 — replication", Virtual: true, Run: fixed(RunA6)},
}

// sized adapts a typed Run function to the registry.
func sized[R Result](run func(Size) (R, error)) func(Size) (Result, error) {
	return func(s Size) (Result, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// fixed adapts a Run function that runs the same at every size.
func fixed[R Result](run func() (R, error)) func(Size) (Result, error) {
	return sized(func(Size) (R, error) { return run() })
}

// verdict collects the gates a result fails.
type verdict []error

func (v *verdict) require(ok bool, format string, args ...any) {
	if !ok {
		*v = append(*v, fmt.Errorf(format, args...))
	}
}

func (v verdict) err() error { return errors.Join(v...) }

// bestOf runs attempt up to n times, folding each run into the best so far
// with merge, and stops as soon as done accepts the merged result. It is
// for wall-clock claims that a host scheduler stall can only make look
// worse: merge keeps each figure's cleanest attempt, and must carry
// correctness signals (byte mismatches, user-visible errors) over from
// every attempt, so a retry never hides one.
func bestOf[T any](n int, attempt func() (T, error), merge func(best, next T) T, done func(T) bool) (T, error) {
	var best T
	for i := 0; i < n; i++ {
		next, err := attempt()
		if err != nil {
			return best, err
		}
		if i == 0 {
			best = next
		} else {
			best = merge(best, next)
		}
		if done(best) {
			break
		}
	}
	return best, nil
}

// pairedOverhead measures what switching instrumentation on costs in
// throughput. Host throughput drifts between regimes that outlast a rep,
// so rates from different reps are not comparable: each rep is a
// back-to-back off/on pair instead, with the order alternating per rep to
// cancel drift within a pair. run returns one run's rate. The result is
// each mode's median rate and every pair's overhead, in percent of the
// pair's off rate.
func pairedOverhead(reps int, run func(rep int, on bool) (float64, error)) (onRate, offRate float64, pairPcts []float64, err error) {
	var onRates, offRates []float64
	for rep := 0; rep < reps; rep++ {
		var rates [2]float64 // off, on
		for _, on := range []bool{rep%2 == 1, rep%2 == 0} {
			rate, err := run(rep, on)
			if err != nil {
				return 0, 0, nil, err
			}
			if on {
				rates[1] = rate
			} else {
				rates[0] = rate
			}
		}
		offRates = append(offRates, rates[0])
		onRates = append(onRates, rates[1])
		if rates[0] > 0 {
			pairPcts = append(pairPcts, (rates[0]-rates[1])/rates[0]*100)
		}
	}
	return median(onRates), median(offRates), pairPcts, nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
