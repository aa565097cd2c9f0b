package bench

import (
	"fmt"
	"io"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/policy"
	"muxfs/internal/policy/autotune"
	"muxfs/internal/tenant"
)

// E14 — multi-tenant isolation + autotuning. Two claims:
//
//   - Isolation: a victim tenant with a hot zipfian working set shares one
//     Mux with an aggressor running a cold scan. Unprotected (plain LRU,
//     no cache, no quota) the scan floods the small fast tier, victim
//     files demote, and the victim's virtual-time read p99 inflates by an
//     order of magnitude. Protected — per-tenant fast-tier quota + MGLRU
//     SCM cache + the autotuner — the inflation must stay ≤2× (2.5×
//     smoke), the quota must actually hold the aggressor's fast-tier
//     bytes down, and the protected run must beat the unprotected one.
//   - Convergence: starting from deliberately bad LRU watermarks, the
//     feedback controller (internal/policy/autotune) must climb to within
//     20% (30% smoke) of a hand-tuned DefaultLRU on the same workload —
//     measured as fast-tier read fraction over the final window — with a
//     monotone accepted-score sequence and no post-convergence
//     oscillation (hysteresis holds the knobs still).
//
// All latencies are virtual (per-tenant attribution records simclock
// deltas), so every number and both gates are deterministic.
const (
	// A deliberately small fast tier (the contended resource): big enough
	// for the victim's working set, far too small for the scan.
	e14PMCap = 24 << 20

	// Victim: 64 × 128 KiB fully seeded (8 MiB set), zipf 2.0 — a hot head
	// plus a long tail the scan's recency can push off the fast tier.
	e14VicFiles = 64
	e14VicSize  = 128 << 10
	e14VicOp    = 4096

	// Aggressor: a wide cold scan, half writes (which allocate fast-tier
	// blocks) and half reads of what it wrote.
	e14AggrFiles = 256
	e14AggrSize  = 256 << 10
	e14AggrOp    = 128 << 10

	// Protection: the aggressor's fast-tier budget, and the MGLRU SCM
	// cache in front of the fast tier.
	e14QuotaBytes = 4 << 20
	e14CacheBytes = 4 << 20

	// Per-FS DRAM page cache on the slow tiers. Deliberately smaller than
	// the victim's working set: the scan's stream keeps washing it, so a
	// tenant evicted from the fast tier really does eat device latency.
	e14SlowCache = 2 << 20

	// Convergence workload: a log-structured churn tenant — writes append
	// fresh 64 KiB blocks continuously, reads target the newest files — so
	// the LRU's demote-place loop runs forever and the watermarks have
	// steady-state consequences the controller can climb. The recency read
	// window (16 MiB) sits between what bad watermarks keep fast-resident
	// (~8 MiB) and what hand-tuned ones do (~21 MiB), so every accepted
	// watermark step moves the fast-read fraction by several percent.
	// Files is sized so the write head never wraps the namespace within a
	// run (wrap turns appends into in-place overwrites that follow the BLT
	// to whatever tier holds the old blocks, and the experiment stops
	// exercising placement). Full mode advances ~75 writes/round × 260
	// rounds / 4 slots-per-file ≈ 4900 files.
	e14ConvFiles  = 8192
	e14ConvSize   = 256 << 10
	e14ConvOp     = 64 << 10
	e14ConvRecent = 64 // recency window: 64 × 256 KiB = 16 MiB
)

// E14Isolation is the victim/aggressor drill.
type E14Isolation struct {
	VictimAloneP99 time.Duration `json:"victim_alone_p99_ns"` // virtual
	UnprotP99      time.Duration `json:"unprot_p99_ns"`
	ProtP99        time.Duration `json:"prot_p99_ns"`
	UnprotRatio    float64       `json:"unprot_ratio"`
	ProtRatio      float64       `json:"prot_ratio"`

	// Quota accounting after the protected run's final round.
	AggrFastBytes   int64 `json:"aggr_fast_bytes"`
	AggrQuotaBytes  int64 `json:"aggr_quota_bytes"`
	VictimFastBytes int64 `json:"victim_fast_bytes"`
	QuotaDemotions  int   `json:"quota_demotions"`

	// Jain fairness over per-tenant read service rate (1/mean latency),
	// with the aggressor present: how evenly the system serves the two
	// tenants' reads. Reported for both configs; protection is expected
	// to REDUCE raw fairness (the quota is deliberately partial to the
	// victim) while restoring the victim's latency.
	UnprotJain float64 `json:"unprot_jain"`
	ProtJain   float64 `json:"prot_jain"`
}

// E14Convergence is the bad-start autotune climb vs the hand-tuned LRU.
type E14Convergence struct {
	Rounds     int     `json:"rounds"`
	HandScore  float64 `json:"hand_fast_read_frac"`
	TunedScore float64 `json:"tuned_fast_read_frac"`
	Ratio      float64 `json:"tuned_over_hand"`

	Accepted  int64 `json:"accepted"`
	Reverted  int64 `json:"reverted"`
	Holds     int64 `json:"holds"`
	Converged bool  `json:"converged"`

	// MonotoneAccepts is true when the accepted decisions' scores are
	// nondecreasing in log order — the auditable no-regression property.
	MonotoneAccepts bool `json:"monotone_accepts"`
	// LateAccepts counts accepts in the last quarter of the decision log;
	// with hysteresis the climb must have settled by then.
	LateAccepts int `json:"late_accepts"`

	FinalParams map[string]float64 `json:"final_params"`
}

// E14Result is the multi-tenant isolation + autotuning experiment.
type E14Result struct {
	Smoke       bool           `json:"smoke"`
	Isolation   E14Isolation   `json:"isolation"`
	Convergence E14Convergence `json:"convergence"`
}

// newE14Stack builds a three-tier stack with a deliberately small fast
// tier (tier 0).
func newE14Stack(pol policy.Policy) (*stack, error) {
	return newStack(stackSpec{
		mux: core.Config{Name: "mux", Policy: pol},
		// The capacity tiers are sized so the churn namespace (~1 GiB)
		// never pushes SSD past the minimum watermark: E14 studies the PM
		// boundary, and an SSD-level drain avalanche (tens of MiB per
		// watermark probe) would swamp the churn signal the autotuner is
		// being graded on. Device data is a sparse page map, so large
		// capacities cost nothing.
		caps: [3]int64{e14PMCap, 8 << 30, 16 << 30},
		// Small per-FS page caches: on a consolidated host the scan's
		// stream washes the shared DRAM, so the slow tiers cannot hide a
		// tenant's working set in a private 128 MiB cache — tier placement
		// has to be the latency lever, which is exactly what E14 measures.
		pageCache: [3]int64{1: e14SlowCache, 2: e14SlowCache},
	})
}

// e14Victim / e14Aggressor are the two tenant specs. Seeds are fixed: the
// whole drill is deterministic.
func e14Victim() tenant.Spec {
	return tenant.Spec{Name: "victim", Prefix: "/hot/", Files: e14VicFiles,
		FileSize: e14VicSize, OpSize: e14VicOp, ReadFrac: 0.9, Skew: 2.0, Seed: 41}
}

func e14Aggressor() tenant.Spec {
	return tenant.Spec{Name: "scan", Prefix: "/scan/", Files: e14AggrFiles,
		FileSize: e14AggrSize, OpSize: e14AggrOp, ReadFrac: 0.5, Scan: true, Seed: 42}
}

// e14Seed writes every victim file in full so the hot set exists (and is
// placed by the policy) before measurement starts.
func e14Seed(m *core.Mux, r *tenant.Runner) error {
	if err := r.Populate(r.Spec.Files); err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < r.Spec.Files; i++ {
		f, err := m.Open(r.Path(i))
		if err != nil {
			return err
		}
		for off := int64(0); off < r.Spec.FileSize; off += int64(len(buf)) {
			n := int64(len(buf))
			if off+n > r.Spec.FileSize {
				n = r.Spec.FileSize - off
			}
			if _, err := f.WriteAt(buf[:n], off); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// e14IsoRun runs one isolation configuration and returns the victim's
// virtual read p99 over the measurement window plus the per-tenant mean
// read latencies (for the fairness index).
type e14IsoStats struct {
	p99   time.Duration
	rates []float64 // per-tenant read service rate, ops per virtual ms
}

func e14IsoRun(env *stack, specs []tenant.Spec, warmup, rounds, ops int) (e14IsoStats, error) {
	var out e14IsoStats
	var runners []*tenant.Runner
	var victim *tenant.Runner
	for _, s := range specs {
		r, err := tenant.New(env.mux, s)
		if err != nil {
			return out, err
		}
		if err := env.mux.RegisterTenant(s.Name, s.Prefix); err != nil {
			return out, err
		}
		if s.Name == "victim" {
			victim = r
		} else if err := r.Populate(0); err != nil {
			return out, err
		}
		runners = append(runners, r)
	}
	between := func(int) error {
		env.clk.Advance(time.Millisecond)
		_, err := env.mux.RunPolicyOnce()
		return err
	}
	// The scan arrives FIRST and floods the fast tier; the victim then
	// seeds its working set into whatever room is left. Unprotected, the
	// scan holds the fast tier pinned above the promotion watermark, so
	// the victim's hot files are stranded on the slow tiers; the quota
	// drains the scan's bytes and gives the victim its residency back.
	if len(runners) > 1 {
		if err := tenant.RunRounds(runners[1:], warmup, ops, between); err != nil {
			return out, err
		}
	}
	if err := e14Seed(env.mux, victim); err != nil {
		return out, err
	}
	if err := tenant.RunRounds(runners, warmup, ops, between); err != nil {
		return out, err
	}
	base := env.mux.ReadLatSnapshot("victim")
	baseTel := env.mux.TenantTelemetrySnapshot()
	if err := tenant.RunRounds(runners, rounds, ops, between); err != nil {
		return out, err
	}
	win := env.mux.ReadLatSnapshot("victim").Delta(base)
	out.p99 = time.Duration(win.Quantile(0.99))
	for i, t := range env.mux.TenantTelemetrySnapshot() {
		dReads := t.Reads - baseTel[i].Reads
		dSum := float64(t.ReadMean)*float64(t.Reads) - float64(baseTel[i].ReadMean)*float64(baseTel[i].Reads)
		if dSum > 0 {
			out.rates = append(out.rates, float64(dReads)/(dSum/float64(time.Millisecond)))
		}
	}
	return out, nil
}

// e14FastReadFrac sums the per-tier read counters and returns (fast, total).
func e14FastReadFrac(m *core.Mux, fastID int) (int64, int64) {
	var fast, total int64
	for _, op := range m.Telemetry().Ops {
		if op.Op != "read" || op.Tier < 0 {
			continue
		}
		total += op.Count
		if op.Tier == fastID {
			fast += op.Count
		}
	}
	return fast, total
}

// e14ConvRun drives the convergence workload for the given rounds and
// returns the fast-tier read fraction over the final window. When tune is
// non-nil the autotuner engages after prewarm rounds — the fill transient
// (an empty fast tier scores perfectly no matter the knobs) is not a
// baseline worth learning from.
func e14ConvRun(env *stack, prewarm, rounds, window, ops int, tune *autotune.Options) (float64, error) {
	spec := tenant.Spec{Name: "tuneme", Prefix: "/w/", Files: e14ConvFiles,
		FileSize: e14ConvSize, OpSize: e14ConvOp, ReadFrac: 0.75,
		Churn: true, Recent: e14ConvRecent, Seed: 77}
	r, err := tenant.New(env.mux, spec)
	if err != nil {
		return 0, err
	}
	if err := env.mux.RegisterTenant(spec.Name, spec.Prefix); err != nil {
		return 0, err
	}
	if err := r.Populate(0); err != nil {
		return 0, err
	}
	var f0, t0 int64
	between := func(n int) error {
		if n == prewarm && tune != nil {
			if err := env.mux.EnableAutotune(*tune); err != nil {
				return err
			}
		}
		if n == rounds-window {
			// Measure the settled configuration: pin the knobs (reverting
			// any in-flight probe) so the window is not polluted by probe
			// transients the tuner would have reverted anyway.
			if tn := env.mux.Autotuner(); tn != nil {
				tn.Freeze()
			}
			f0, t0 = e14FastReadFrac(env.mux, 0)
		}
		env.clk.Advance(time.Millisecond)
		_, err := env.mux.RunPolicyOnce()
		return err
	}
	if err := tenant.RunRounds([]*tenant.Runner{r}, rounds, ops, between); err != nil {
		return 0, err
	}
	f1, t1 := e14FastReadFrac(env.mux, 0)
	if t1 == t0 {
		return 0, fmt.Errorf("E14: no reads in the final %d-round window", window)
	}
	return float64(f1-f0) / float64(t1-t0), nil
}

// RunE14 runs the multi-tenant isolation + autotuning experiment. Smoke
// runs fewer rounds and relaxes the isolation and convergence gates.
func RunE14(size Size) (E14Result, error) {
	r := E14Result{Smoke: size == Smoke}
	warmup, rounds, ops := 4, 8, 200
	convPrewarm, convRounds, convWindow, convOps := 10, 260, 12, 300
	if r.Smoke {
		warmup, rounds, ops = 3, 5, 150
		convPrewarm, convRounds, convWindow, convOps = 8, 140, 10, 300
	}

	// --- Isolation drill: three runs on identical fresh stacks. ---
	alone, err := newE14Stack(policy.DefaultLRU())
	if err != nil {
		return r, err
	}
	a, err := e14IsoRun(alone, []tenant.Spec{e14Victim()}, warmup, rounds, ops)
	if err != nil {
		return r, fmt.Errorf("E14 victim-alone: %w", err)
	}

	unprot, err := newE14Stack(policy.DefaultLRU())
	if err != nil {
		return r, err
	}
	u, err := e14IsoRun(unprot, []tenant.Spec{e14Victim(), e14Aggressor()}, warmup, rounds, ops)
	if err != nil {
		return r, fmt.Errorf("E14 unprotected: %w", err)
	}

	protPol := &policy.QuotaPolicy{
		Base:   policy.DefaultLRU(),
		Quotas: []policy.Quota{{Prefix: "/scan/", Tier: 0, Bytes: e14QuotaBytes}},
	}
	prot, err := newE14Stack(protPol)
	if err != nil {
		return r, err
	}
	if err := prot.mux.EnableSCMCache(0, e14CacheBytes); err != nil {
		return r, err
	}
	if err := prot.mux.EnableAutotune(autotune.Options{}); err != nil {
		return r, err
	}
	p, err := e14IsoRun(prot, []tenant.Spec{e14Victim(), e14Aggressor()}, warmup, rounds, ops)
	if err != nil {
		return r, fmt.Errorf("E14 protected: %w", err)
	}

	iso := E14Isolation{
		VictimAloneP99: a.p99, UnprotP99: u.p99, ProtP99: p.p99,
		AggrQuotaBytes: e14QuotaBytes,
		UnprotJain:     jain(u.rates), ProtJain: jain(p.rates),
		QuotaDemotions: prot.mux.LastMigration().QuotaDemotions,
	}
	if a.p99 > 0 {
		iso.UnprotRatio = float64(u.p99) / float64(a.p99)
		iso.ProtRatio = float64(p.p99) / float64(a.p99)
	}
	for _, t := range prot.mux.TenantTelemetrySnapshot() {
		switch t.Name {
		case "scan":
			iso.AggrFastBytes = t.FastBytes
		case "victim":
			iso.VictimFastBytes = t.FastBytes
		}
	}
	r.Isolation = iso

	// --- Convergence: hand-tuned LRU vs autotuned bad start. ---
	hand, err := newE14Stack(policy.DefaultLRU())
	if err != nil {
		return r, err
	}
	handScore, err := e14ConvRun(hand, convPrewarm, convRounds, convWindow, convOps, nil)
	if err != nil {
		return r, fmt.Errorf("E14 hand-tuned: %w", err)
	}

	badPol := &policy.LRU{
		HighWatermark: 0.34,
		LowWatermark:  0.30,
		PromoteWindow: 50 * time.Microsecond,
	}
	tuned, err := newE14Stack(badPol)
	if err != nil {
		return r, err
	}
	// Low hysteresis: single watermark steps move the objective only a few
	// percent, and with default 2% hysteresis the climb stalls on the
	// plateau. 1% still damps oscillation (Check verifies).
	// DecideEvery 2: the LRU drain fires roughly every other round under
	// this ingest rate, so per-round intervals alternate drained/refilling
	// and a one-round verdict scores the phase, not the probe. Spanning two
	// rounds averages a full drain cycle.
	tunedScore, err := e14ConvRun(tuned, convPrewarm, convRounds, convWindow, convOps,
		&autotune.Options{Hysteresis: 0.01, DecideEvery: 2})
	if err != nil {
		return r, fmt.Errorf("E14 tuned: %w", err)
	}

	tn := tuned.mux.Autotuner()
	st := tn.Status()
	log := tn.Log()
	conv := E14Convergence{
		Rounds: convRounds, HandScore: handScore, TunedScore: tunedScore,
		Accepted: st.Accepted, Reverted: st.Reverted, Holds: st.Holds,
		Converged: st.Converged, MonotoneAccepts: true,
		FinalParams: map[string]float64{},
	}
	if handScore > 0 {
		conv.Ratio = tunedScore / handScore
	}
	// Accepted scores are monotone within an epoch; a "wake" re-baselines
	// best after a workload (or plateau-noise) shift, so the sequence
	// restarts there by design.
	lastAccept := -1.0
	for i, d := range log {
		switch d.Action {
		case "wake":
			lastAccept = -1.0
		case "accept":
			if lastAccept >= 0 && d.Score < lastAccept {
				conv.MonotoneAccepts = false
			}
			lastAccept = d.Score
			if i >= len(log)*3/4 {
				conv.LateAccepts++
			}
		}
	}
	for _, pr := range st.Params {
		conv.FinalParams[pr.Name] = pr.Value
	}
	r.Convergence = conv
	return r, nil
}

// Format renders the result tables.
func (r E14Result) Format(w io.Writer) {
	mode := "full"
	if r.Smoke {
		mode = "smoke"
	}
	i := r.Isolation
	fmt.Fprintf(w, "multi-tenant isolation + autotuning (%s); %d MiB fast tier, victim %d×%dKiB zipf vs %d-file cold scan\n\n",
		mode, e14PMCap>>20, e14VicFiles, e14VicSize>>10, e14AggrFiles)
	fmt.Fprintf(w, "  victim virtual read p99 (vs alone %v):\n", i.VictimAloneP99)
	fmt.Fprintf(w, "    unprotected (plain LRU)           %12v  -> %6.2fx inflation\n", i.UnprotP99, i.UnprotRatio)
	fmt.Fprintf(w, "    quota + MGLRU cache + autotune    %12v  -> %6.2fx inflation (gate <=2x)\n", i.ProtP99, i.ProtRatio)
	fmt.Fprintf(w, "    aggressor fast-tier bytes %s (quota %s), victim %s, %d quota demotions final round\n",
		fmtMiB(i.AggrFastBytes), fmtMiB(i.AggrQuotaBytes), fmtMiB(i.VictimFastBytes), i.QuotaDemotions)
	fmt.Fprintf(w, "    Jain over per-tenant read service rate: unprot %.3f, prot %.3f\n", i.UnprotJain, i.ProtJain)

	c := r.Convergence
	fmt.Fprintf(w, "\n  autotune convergence (%d rounds, bad start HighWM=0.34 LowWM=0.30 win=50µs):\n", c.Rounds)
	fmt.Fprintf(w, "    hand-tuned fast-read fraction  %.3f\n", c.HandScore)
	fmt.Fprintf(w, "    autotuned  fast-read fraction  %.3f  -> %.1f%% of hand-tuned\n", c.TunedScore, 100*c.Ratio)
	fmt.Fprintf(w, "    controller: %d accepts, %d reverts, %d holds, converged=%v, monotone accepts=%v, late accepts=%d\n",
		c.Accepted, c.Reverted, c.Holds, c.Converged, c.MonotoneAccepts, c.LateAccepts)
	fmt.Fprintf(w, "    final params:")
	for _, name := range []string{"high_watermark", "low_watermark", "promote_window_ns"} {
		if v, ok := c.FinalParams[name]; ok {
			fmt.Fprintf(w, " %s=%.3g", name, v)
		}
	}
	fmt.Fprintln(w)
}

func fmtMiB(n int64) string {
	return fmt.Sprintf("%.1fMiB", float64(n)/float64(1<<20))
}

// Check requires the quota to hold the aggressor's fast-tier bytes down
// while the victim keeps its residency, and the autotuner to accept at
// least one probe from the bad start with a monotone accepted-score audit
// trail. At AllGates it adds the isolation and convergence claims: the
// protected victim's p99 inflation (<= 2x, 2.5x at smoke size) beats the
// unprotected one, the tuned score reaches 80% of hand-tuned (70% smoke),
// and the full run settles (at most two late accepts).
func (r E14Result) Check(g Gates) error {
	var v verdict
	i, c := r.Isolation, r.Convergence
	v.require(i.AggrFastBytes <= 2*i.AggrQuotaBytes, "aggressor holds %s of fast tier against a %s quota", fmtMiB(i.AggrFastBytes), fmtMiB(i.AggrQuotaBytes))
	v.require(i.VictimFastBytes > 0, "victim lost its entire fast-tier residency under protection")
	v.require(c.Accepted > 0, "controller accepted no probes from the bad start")
	v.require(c.MonotoneAccepts, "accepted scores regressed — monotonicity broken")
	if g >= AllGates {
		maxProt, minRatio := 2.0, 0.80
		if r.Smoke {
			maxProt, minRatio = 2.5, 0.70
		}
		v.require(i.ProtRatio <= maxProt, "protected victim p99 inflated %.2fx (gate %.1fx)", i.ProtRatio, maxProt)
		v.require(i.UnprotRatio > i.ProtRatio, "protection changed nothing (unprot %.2fx vs prot %.2fx)", i.UnprotRatio, i.ProtRatio)
		v.require(c.Ratio >= minRatio, "autotuned score %.3f is only %.0f%% of hand-tuned %.3f (gate %.0f%%)",
			c.TunedScore, 100*c.Ratio, c.HandScore, 100*minRatio)
		v.require(r.Smoke || c.LateAccepts <= 2, "%d accepts in the last quarter of the log — still oscillating", c.LateAccepts)
	}
	return v.err()
}
