package bench

import (
	"fmt"
	"io"
	"time"

	"muxfs/internal/core"
)

// E9 — telemetry overhead: the E8 metadata-hot workload at 16 clients, run
// with telemetry recording enabled vs disabled, reporting the throughput
// delta. Telemetry's design budget is "cheap enough to leave on" — per-tier
// instruments are pre-resolved, recording is a handful of atomics, and the
// disabled path is one atomic load — so the gate is a ≤5% ops/sec cost.
//
// Wall-clock noise control: each rep is a back-to-back off/on pair and the
// overhead is the median over the pairs (pairedOverhead), so a scheduler
// hiccup in one rep cannot manufacture (or mask) overhead in either
// direction. The enabled run's own snapshot supplies the per-tier op
// counts and latency quantiles the experiment reports — E9 doubles as the
// end-to-end check that the instruments actually saw the workload.

const (
	e9Clients = 16
	e9Reps    = 5
)

// E9Rep is one repetition of one mode.
type E9Rep struct {
	Enabled   bool
	WallMs    float64
	Ops       int64
	OpsPerSec float64
}

// E9Op is one per-tier op series from the telemetry-enabled run: count,
// bytes, errors, and wall-latency quantiles in nanoseconds.
type E9Op struct {
	Tier  int    `json:"tier"`
	Name  string `json:"tier_name,omitempty"`
	Op    string `json:"op"`
	Count int64  `json:"count"`
	Bytes int64  `json:"bytes,omitempty"`
	Errs  int64  `json:"errors"`
	P50   int64  `json:"p50_ns"`
	P95   int64  `json:"p95_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
}

// E9Result is the telemetry-overhead measurement.
type E9Result struct {
	G     int
	Iters int
	Reps  []E9Rep

	// OnOpsPerSec/OffOpsPerSec are each mode's median rep.
	OnOpsPerSec  float64
	OffOpsPerSec float64
	// OverheadPct is the median over the off/on pairs of telemetry-on's
	// throughput cost in percent of the pair's telemetry-off rate (negative
	// values mean "on" measured faster — noise).
	OverheadPct float64

	// Ops is the per-tier telemetry from the fastest enabled rep: counts,
	// bytes, and latency quantiles per tier+op, plus the flush/migrate rows.
	Ops []E9Op
	// MetaOps counts namespace operations by kind from the enabled run.
	MetaOps map[string]int64

	// Recorded reports that the enabled run's instruments saw the workload
	// (nonzero read count on the hot tier and nonzero meta-op counts).
	Recorded bool
	// ByteIdentical/Consistent carry the E8 oracles across every rep.
	ByteIdentical bool
	Consistent    bool
}

// RunE9 measures telemetry overhead.
func RunE9() (*E9Result, error) {
	res := &E9Result{G: e9Clients, Iters: e8Iters, ByteIdentical: true, Consistent: true}
	var bestOnTel core.TelemetrySnapshot
	var bestOn float64
	var pairPcts []float64
	var err error
	res.OnOpsPerSec, res.OffOpsPerSec, pairPcts, err = pairedOverhead(e9Reps, func(rep int, enabled bool) (float64, error) {
		row, identical, consistent, tel, err := runE8Config(e9Clients, !enabled)
		if err != nil {
			return 0, fmt.Errorf("E9 rep %d (telemetry=%v): %w", rep, enabled, err)
		}
		res.ByteIdentical = res.ByteIdentical && identical
		res.Consistent = res.Consistent && consistent
		res.Reps = append(res.Reps, E9Rep{
			Enabled: enabled, WallMs: row.WallMs, Ops: row.Ops, OpsPerSec: row.OpsPerSec,
		})
		if enabled && row.OpsPerSec > bestOn {
			bestOn = row.OpsPerSec
			bestOnTel = tel
		}
		return row.OpsPerSec, nil
	})
	if err != nil {
		return nil, err
	}
	res.OverheadPct = median(pairPcts)

	res.MetaOps = bestOnTel.MetaOps
	var hotReads int64
	for _, op := range bestOnTel.Ops {
		if op.Count == 0 && op.Errors == 0 {
			continue
		}
		res.Ops = append(res.Ops, E9Op{
			Tier: op.Tier, Name: op.TierName, Op: op.Op,
			Count: op.Count, Bytes: op.Bytes, Errs: op.Errors,
			P50: int64(op.P50), P95: int64(op.P95), P99: int64(op.P99), Max: int64(op.Max),
		})
		if op.Op == "read" && op.Count > 0 {
			hotReads += op.Count
		}
	}
	var metaTotal int64
	for _, c := range res.MetaOps {
		metaTotal += c
	}
	res.Recorded = hotReads > 0 && metaTotal > 0
	return res, nil
}

// Check requires both modes to run in off/on pairs, the E8 oracles to hold
// on every rep, and the enabled run's instruments to have seen the
// workload, per-tier read quantiles for the hot tier included. At AllGates
// it adds the budget: telemetry on costs at most 5% of off throughput.
func (r *E9Result) Check(g Gates) error {
	var v verdict
	v.require(len(r.Reps) > 0 && len(r.Reps)%2 == 0, "want off/on pairs of reps, got %d reps", len(r.Reps))
	for i := 0; i+1 < len(r.Reps); i += 2 {
		v.require(r.Reps[i].Enabled != r.Reps[i+1].Enabled, "reps %d and %d run the same mode", i, i+1)
	}
	v.require(r.OnOpsPerSec > 0 && r.OffOpsPerSec > 0, "missing mode throughput (on=%.0f off=%.0f)", r.OnOpsPerSec, r.OffOpsPerSec)
	v.require(r.Recorded, "telemetry-enabled run recorded no reads or meta ops")
	v.require(r.ByteIdentical, "a cached read returned bytes != staged pattern")
	v.require(r.Consistent, "Statfs accounting did not balance after churn")
	var sawHotRead bool
	for _, op := range r.Ops {
		if op.Op == "read" && op.Tier == 0 && op.Count > 0 && op.P50 > 0 {
			sawHotRead = true
		}
	}
	v.require(sawHotRead, "no per-tier read latency distribution in the enabled run")
	if g >= AllGates {
		v.require(r.OverheadPct <= 5, "telemetry-on overhead %.2f%% exceeds 5%%", r.OverheadPct)
	}
	return v.err()
}

// Format prints the telemetry-overhead comparison.
func (r *E9Result) Format(w io.Writer) {
	fmt.Fprintf(w, "E9 — telemetry overhead: E8 metadata-hot workload at %d clients, recording on vs off\n", r.G)
	fmt.Fprintln(w, "  (wall time; overhead is the median over back-to-back off/on pairs, order alternating per pair; gate is ≤5% ops/sec cost)")
	fmt.Fprintf(w, "  %-6s %-10s %12s %12s %14s\n", "Rep", "Telemetry", "Wall ms", "Ops", "Ops/sec")
	for i, rep := range r.Reps {
		mode := "off"
		if rep.Enabled {
			mode = "on"
		}
		fmt.Fprintf(w, "  %-6d %-10s %12.1f %12d %14.0f\n", i/2, mode, rep.WallMs, rep.Ops, rep.OpsPerSec)
	}
	fmt.Fprintf(w, "  median: off=%.0f ops/sec  on=%.0f ops/sec  overhead=%.2f%%\n",
		r.OffOpsPerSec, r.OnOpsPerSec, r.OverheadPct)

	fmt.Fprintf(w, "  %-10s %-8s %10s %12s %8s %10s %10s %10s\n",
		"tier", "op", "count", "bytes", "errors", "p50", "p95", "p99")
	for _, op := range r.Ops {
		name := op.Name
		if op.Tier < 0 {
			name = "-"
		}
		fmt.Fprintf(w, "  %-10s %-8s %10d %12d %8d %10v %10v %10v\n",
			name, op.Op, op.Count, op.Bytes, op.Errs,
			time.Duration(op.P50).Round(time.Microsecond),
			time.Duration(op.P95).Round(time.Microsecond),
			time.Duration(op.P99).Round(time.Microsecond))
	}

	rec := "instruments saw the workload (reads + meta ops recorded)"
	if !r.Recorded {
		rec = "INSTRUMENTS EMPTY — telemetry missed the workload"
	}
	id := "every cached read returned the staged pattern"
	if !r.ByteIdentical {
		id = "DATA DIVERGED — a cached read returned stale or torn bytes"
	}
	acc := "Statfs accounting balanced"
	if !r.Consistent {
		acc = "ACCOUNTING DIVERGED — files lost or leaked"
	}
	fmt.Fprintf(w, "  recording: %s\n  integrity: %s; %s\n", rec, id, acc)
	fmt.Fprintf(w, "  headline: telemetry-on costs %.2f%% of off throughput (budget 5%%)\n", r.OverheadPct)
}
