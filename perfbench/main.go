// Command perfbench is the repository benchmark: it builds a Mux stack from
// the program's constructors, drives one named workload from a seed in a
// closed loop, checks every reply against a shadow model, and prints one
// JSON line of metrics. With -trace 1 it also runs the workload with
// timing wrappers at every VFS seam and prints the per-layer metrics
// instead.
//
//	go run . -workload hot-local -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// traceShare is the length of each run of -trace 1 relative to the
	// untraced run: the traced mode runs the workload three times.
	traceShare = 0.4
	// recoverCycles is how many Sync → Crash → Recover cycles recover_s
	// takes the median of.
	recoverCycles = 25
)

// options are the command's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // directory for span files; empty writes none
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "op-stream seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "run length, as seconds' worth of ops on a 2-core host")
	flag.IntVar(&trace, "trace", 0, "1: traced run, print per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "directory to write span files to")
	flag.Parse()
	o.trace = trace == 1
	if workloads[o.workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// A run has 180 s; give up cleanly before that.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(3)
	})
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

func run(o options) (*report, error) {
	w := workloads[o.workload]()
	ops := float64(w.opsPerSec) * o.seconds
	if o.trace {
		return runTraced(w, o, max(1, int(ops*traceShare)))
	}
	return runE2E(w, o, max(w.clients, int(ops)))
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runE2E is the untraced run that yields the end-to-end metrics.
func runE2E(w *workload, o options, ops int) (*report, error) {
	var setupS []float64
	var ss *testbed
	for i := 0; i < w.setups; i++ {
		if ss != nil {
			ss.teardown()
			freeMemory()
		}
		t0 := time.Now()
		var err error
		if ss, err = setup(w, o.seed, nil, w.clients); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer ss.teardown()
	r, err := ss.measure(ops, false)
	if err != nil {
		return nil, err
	}
	_, bad, errs := ss.finalChecks(1)
	for _, e := range append(r.errs, errs...) {
		logf("perfbench: %s: %s", w.name, e)
	}

	// Only figures that repeat on a shared host are end-to-end metrics
	// (set-up time aside, which every benchmark reports). Wall-clock and
	// CPU-time figures move together by up to a third when the host is
	// busy, so they are reported per layer, from the traced mode's
	// untraced runs (client.*).
	failed := r.failed + int64(bad)
	n := float64(r.det.ops)
	m := map[string]metric{
		"setup_s":            {median(setupS), "s"},
		"sim_us_per_op":      {ratio(float64(r.det.sim)/1e3, n), "us"},
		"dev_write_amp":      {ratio(float64(r.det.devBytes), float64(r.det.userBytes)), "ratio"},
		"space_amp":          {ratio(float64(r.det.used), float64(r.det.live)), "ratio"},
		"peak_rss_mb":        {peakRSSMiB(), "MiB"},
		"alloc_bytes_per_op": {ratio(float64(r.end.alloc-r.start.alloc), n), "B"},
		"ok_share":           {1 - ratio(float64(failed), n), "ratio"},
	}
	logf("perfbench: %s seed %d: %d ops in %.2fs, setups %.3v, %.0f ops/s, %.3g us CPU/op",
		w.name, o.seed, r.det.ops, r.wall().Seconds(), setupS, r.opsPerSec(),
		ratio(float64(r.end.cpu-r.start.cpu)/1e3, n))
	return &report{Correct: failed == 0, Attempted: r.det.ops, Failed: failed, Metrics: m}, nil
}

// runTraced runs the workload three times from fresh set-ups with the
// same seed — untraced, traced, untraced — and derives the per-layer
// metrics from the traced run's spans and counters. Tracing overhead is
// measured against both untraced runs, so warm-up in the process favours
// neither side.
func runTraced(w *workload, o options, ops int) (*report, error) {
	const clients = 1 // one request in flight, so span parentage is exact
	var refs []*result
	var rec []float64 // recovery wall times of the untraced runs
	var refBad int
	var refErrs []string
	untraced := func() error {
		ss, err := setup(w, o.seed, nil, clients)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r, err := ss.measure(ops, true)
		if err != nil {
			ss.teardown()
			return err
		}
		times, bad, errs := ss.finalChecks(recoverCycles)
		ss.teardown()
		freeMemory()
		refs = append(refs, r)
		rec = append(rec, times...)
		refBad += bad
		refErrs = append(refErrs, errs...)
		return nil
	}
	if err := untraced(); err != nil {
		return nil, err
	}

	t := newTracer(ops * 4)
	ss, err := setup(w, o.seed, t, clients)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tr, err := ss.measure(ops, true)
	if err != nil {
		ss.teardown()
		return nil, err
	}
	_, bad, errs := ss.finalChecks(1)
	reuse, err := renameReuseProbe(ss.clients[0].fs, "/probe", 100)
	if err != nil {
		ss.teardown()
		return nil, fmt.Errorf("rename probe: %w", err)
	}
	sum := t.analyze()
	if o.traceOut != "" {
		if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
			ss.teardown()
			return nil, err
		}
		if err := t.writeSpans(filepath.Join(o.traceOut, w.name+".spans")); err != nil {
			ss.teardown()
			return nil, err
		}
	}
	m := layerMetrics(ss, tr, sum)
	ss.teardown()
	freeMemory()
	if err := untraced(); err != nil {
		return nil, err
	}
	replay, err := replayProbe()
	if err != nil {
		return nil, fmt.Errorf("replay probe: %w", err)
	}

	failed := tr.failed + int64(bad+refBad)
	errs = append(errs, refErrs...)
	var lat [nKinds][]int64
	var refWall, rate, cpu float64
	for _, r := range refs {
		failed += r.failed
		errs = append(errs, r.errs...)
		for k := range lat {
			lat[k] = append(lat[k], r.lat[k]...)
		}
		n := float64(len(refs))
		refWall += r.wall().Seconds() / n
		rate += r.opsPerSec() / n
		cpu += ratio(float64(r.end.cpu-r.start.cpu)/1e3, float64(r.det.ops)) / n
		if w.clients == 1 && r.det != tr.det {
			logf("perfbench: %s: traced counts %+v differ from untraced %+v", w.name, tr.det, r.det)
			failed++
		}
	}
	for _, e := range append(tr.errs, errs...) {
		logf("perfbench: %s: %s", w.name, e)
	}
	// The client's wall-clock view, from the two untraced runs.
	m["client.ops_per_s"] = metric{rate, "1/s"}
	m["client.cpu_us_per_op"] = metric{cpu, "us"}
	m["client.recover_s"] = metric{median(rec), "s"}
	m["client.read_p50_us"] = metric{quantileUs(lat[kRead], 0.5), "us"}
	m["client.write_p50_us"] = metric{quantileUs(lat[kWrite], 0.5), "us"}
	m["client.meta_p50_us"] = metric{quantileUs(lat[kMeta], 0.5), "us"}
	m["client.read_p99_us"] = metric{quantileUs(lat[kRead], 0.99), "us"}
	m["client.write_p99_us"] = metric{quantileUs(lat[kWrite], 0.99), "us"}
	m["client.meta_p99_us"] = metric{quantileUs(lat[kMeta], 0.99), "us"}
	m["trace.overhead_pct"] = metric{100 * (ratio(tr.wall().Seconds(), refWall) - 1), "%"}
	m["core.rename_reuse_failures"] = metric{float64(reuse), "count"}
	m["fs.pm.compaction_replay_failures"] = metric{float64(replay), "count"}
	logf("perfbench: %s seed %d traced: %d spans, %d ops, untraced %.2fs/%.2fs traced %.2fs",
		w.name, o.seed, sum.spans, tr.det.ops, refs[0].wall().Seconds(), refs[1].wall().Seconds(), tr.wall().Seconds())
	attempted := tr.det.ops + refs[0].det.ops + refs[1].det.ops
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// layerMetrics derives every per-layer metric of a traced run.
func layerMetrics(ss *testbed, tr *result, sum *traceSummary) map[string]metric {
	ops := float64(tr.det.ops)
	user := float64(tr.det.userBytes)
	t := ss.t
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	p50self := func(l layer, k kind) float64 { return quantileUs(sum.self[l][k], 0.5) }

	for _, k := range []kind{kRead, kWrite, kMeta} {
		put("frontend."+kindName[k]+"_self_us_p50", p50self(lFrontend, k), "us")
		put("core."+kindName[k]+"_self_us_p50", p50self(lCore, k), "us")
	}
	d := func(a, b int64) float64 { return float64(a - b) }
	srvHits := d(tr.end.srv.CacheHits+tr.end.srv.CacheNegHits, tr.start.srv.CacheHits+tr.start.srv.CacheNegHits)
	srvAll := srvHits + d(tr.end.srv.CacheMisses, tr.start.srv.CacheMisses)
	put("server.attr_hit_ratio", ratio(srvHits, srvAll), "ratio")
	wallNs := float64(tr.end.at.Sub(tr.start.at))
	busy := 0.0
	if ss.s.srv != nil {
		busy = ratio(float64(sum.coreBusy), wallNs)
	}
	put("server.busy_share", busy, "ratio")
	put("server.frames_per_op", ratio(d(tr.end.srv.Requests, tr.start.srv.Requests), ops), "count")

	put("core.tier_calls_per_op", ratio(float64(sum.tierCallsFromCore), ops), "count")
	put("core.sync_us_p50", quantileUs(sum.dur[lCore][kSync], 0.5), "us")
	files, runs, _, _ := ss.s.mux.BLTStats()
	put("core.blt_runs_per_file", ratio(float64(runs), float64(files)), "count")
	put("core.occ_retries", d(tr.end.occ.Retries, tr.start.occ.Retries), "count")
	put("core.occ_conflicts", d(tr.end.occ.Conflicts, tr.start.occ.Conflicts), "count")

	mig := ss.mig
	mib := float64(mig.BytesMoved) / (1 << 20)
	put("policy.round_ms_p50", quantileUs(sum.dur[lRound][kMeta], 0.5)/1e3, "ms")
	put("policy.plan_us_p50", quantileUs(sum.dur[lPlan][kMeta], 0.5), "us")
	var fg float64
	for l := lPM; l <= lStripe; l++ {
		fg += float64(t.fgRead[l].Load())
	}
	put("policy.fast_read_share", ratio(float64(t.fgRead[lPM].Load()), fg), "ratio")
	put("migrate.mib_moved", mib, "MiB")
	put("migrate.moves", float64(mig.Executed), "count")
	put("migrate.failed", float64(ss.roundErrs), "count")
	put("migrate.wall_ms_per_mib", ratio(float64(mig.Wall)/1e6, mib), "ms")
	put("migrate.heap_bytes_per_byte", ratio(float64(ss.roundHeap), float64(mig.BytesMoved)), "ratio")
	put("migrate.fs_syncs_per_move", ratio(float64(sum.tierSyncsInRound), float64(mig.Executed)), "count")

	for i, l := range []layer{lPM, lSSD, lHDD} {
		t := []string{"pm", "ssd", "hdd"}[i]
		var calls int
		for k := kind(0); k < nKinds; k++ {
			calls += len(sum.dur[l][k])
		}
		put("fs."+t+".read_self_us_p50", p50self(l, kRead), "us")
		put("fs."+t+".write_self_us_p50", p50self(l, kWrite), "us")
		put("fs."+t+".sync_us_p50", quantileUs(sum.dur[l][kSync], 0.5), "us")
		put("fs."+t+".calls_per_op", ratio(float64(calls), ops), "count")
	}
	for i, t := range []string{"ssd", "hdd"} {
		a, b := tr.end.cache[i], tr.start.cache[i]
		hits := d(a.Hits, b.Hits)
		put("fs."+t+".pagecache_hit_ratio", ratio(hits, hits+d(a.Misses, b.Misses)), "ratio")
	}

	simNs := float64(tr.end.sim - tr.start.sim)
	for i, n := range devNames {
		a, b := tr.end.dev[i], tr.start.dev[i]
		put("device."+n+".bytes_written_per_user_byte", ratio(d(a.BytesWritten, b.BytesWritten), user), "ratio")
		put("device."+n+".busy_share", ratio(float64(a.BusyTime-b.BusyTime), simNs), "ratio")
		put("device."+n+".persists_per_op", ratio(d(a.Persists, b.Persists), ops), "count")
	}
	meta := tr.end.dev[3].BytesWritten - tr.start.dev[3].BytesWritten
	put("device.meta.bytes_per_op", ratio(float64(meta), ops), "B")

	var nodeCalls int
	var nodeDur []int64
	for l := lNode0; l <= lNode2; l++ {
		for k := kind(0); k < nKinds; k++ {
			nodeCalls += len(sum.dur[l][k])
			nodeDur = append(nodeDur, sum.dur[l][k]...)
		}
	}
	var stripeSelf []int64
	for k := kind(0); k < nKinds; k++ {
		stripeSelf = append(stripeSelf, sum.self[lStripe][k]...)
	}
	put("ec.tier_self_us_p50", quantileUs(stripeSelf, 0.5), "us")
	put("ec.node_calls_per_op", ratio(float64(nodeCalls), ops), "count")
	put("ec.node_rpc_us_p50", quantileUs(nodeDur, 0.5), "us")
	parity := tr.end.dev[6].BytesWritten - tr.start.dev[6].BytesWritten
	put("ec.parity_bytes_per_user_byte", ratio(float64(parity), user), "ratio")

	// Charged self time over the time the client saw: its ops and the
	// inline policy rounds. Short of 1 is client time no span covers;
	// over 1 is span time outside any client op.
	var clientNs float64
	for _, l := range tr.lat {
		for _, v := range l {
			clientNs += float64(v)
		}
	}
	clientNs += float64(ss.roundWall)
	put("trace.self_sum_ratio", ratio(sum.allSelf, clientNs), "ratio")
	share := func(v float64) float64 { return ratio(v, sum.allSelf) }
	put("trace.self_share.frontend", share(sum.selfSum[lFrontend]), "ratio")
	put("trace.self_share.core", share(sum.selfSum[lCore]), "ratio")
	put("trace.self_share.policy", share(sum.selfSum[lRound]+sum.selfSum[lPlan]), "ratio")
	put("trace.self_share.fs.pm", share(sum.selfSum[lPM]), "ratio")
	put("trace.self_share.fs.ssd", share(sum.selfSum[lSSD]), "ratio")
	put("trace.self_share.fs.hdd", share(sum.selfSum[lHDD]), "ratio")
	put("trace.self_share.fs_sync", share(sum.syncSelf), "ratio")
	ecSelf := sum.selfSum[lStripe] + sum.selfSum[lNode0] + sum.selfSum[lNode1] + sum.selfSum[lNode2]
	put("trace.self_share.ec", share(ecSelf), "ratio")
	return m
}
