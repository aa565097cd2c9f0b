package bench

import (
	"testing"

	"muxfs/internal/race"
)

// The experiment tests assert the qualitative shapes the paper reports —
// who wins, in which direction, within sane bounds — so a regression in any
// layer of the stack that bends a result the wrong way fails loudly.

func TestE1Shape(t *testing.T) {
	r, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	// Extensibility: Mux supports all six pairs, Strata exactly two
	// (PM→SSD, PM→HDD), as in Figure 3a.
	muxPaths, strataPaths := 0, 0
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			if r.Mux[src][dst].Supported {
				muxPaths++
				if r.Mux[src][dst].MBps <= 0 {
					t.Errorf("mux %s->%s throughput = %v", TierName[src], TierName[dst], r.Mux[src][dst].MBps)
				}
			}
			if r.Strata[src][dst].Supported {
				strataPaths++
			}
		}
	}
	if muxPaths != 6 {
		t.Errorf("Mux supports %d migration paths, want 6", muxPaths)
	}
	if strataPaths != 2 {
		t.Errorf("Strata supports %d migration paths, want 2", strataPaths)
	}
	if !r.Strata[0][1].Supported || !r.Strata[0][2].Supported {
		t.Error("Strata's wired paths are not PM->SSD and PM->HDD")
	}
	// Performance: Mux PM→SSD migration beats Strata's substantially
	// (paper: 2.59x; accept a generous band around it).
	if r.SpeedupPMtoSSD < 1.5 || r.SpeedupPMtoSSD > 5 {
		t.Errorf("PM->SSD speedup = %.2fx, want roughly 2.59x", r.SpeedupPMtoSSD)
	}
}

func TestE2Shape(t *testing.T) {
	r, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	// Mux wins on every device (paper: 1.08x / 1.46x / 1.07x), and the SSD
	// gap is the largest.
	for _, row := range r.Rows {
		if row.Speedup < 1.0 || row.Speedup > 2.5 {
			t.Errorf("%s speedup = %.2fx, want >= 1 and sane", row.Device, row.Speedup)
		}
	}
	if !(r.Rows[1].Speedup > r.Rows[0].Speedup && r.Rows[1].Speedup > r.Rows[2].Speedup) {
		t.Errorf("SSD should show the largest Mux advantage: %.2f/%.2f/%.2f",
			r.Rows[0].Speedup, r.Rows[1].Speedup, r.Rows[2].Speedup)
	}
	// Faster devices move more data per second.
	if !(r.Rows[0].MuxMBps > r.Rows[1].MuxMBps && r.Rows[1].MuxMBps > r.Rows[2].MuxMBps) {
		t.Errorf("device-speed ordering broken: %.0f/%.0f/%.0f MB/s",
			r.Rows[0].MuxMBps, r.Rows[1].MuxMBps, r.Rows[2].MuxMBps)
	}
}

func TestE3Shape(t *testing.T) {
	r, err := RunE3()
	if err != nil {
		t.Fatal(err)
	}
	// Worst-case indirection overhead: large on the fast cached paths
	// (paper: +52.4% PM, +87.3% SSD), small on the slow software path
	// (+6.6% HDD); SSD > PM > HDD.
	pm, ssd, hdd := r.Rows[0].OverheadPct, r.Rows[1].OverheadPct, r.Rows[2].OverheadPct
	if !(ssd > pm && pm > hdd) {
		t.Errorf("overhead ordering = %.1f/%.1f/%.1f, want SSD > PM > HDD", pm, ssd, hdd)
	}
	if pm < 30 || pm > 80 {
		t.Errorf("PM overhead %.1f%%, want near +52.4%%", pm)
	}
	if ssd < 60 || ssd > 120 {
		t.Errorf("SSD overhead %.1f%%, want near +87.3%%", ssd)
	}
	if hdd < 2 || hdd > 15 {
		t.Errorf("HDD overhead %.1f%%, want near +6.6%%", hdd)
	}
}

func TestE4Shape(t *testing.T) {
	r, err := RunE4()
	if err != nil {
		t.Fatal(err)
	}
	// Write overhead stays small single-digits everywhere (paper: ≤3.5%).
	for _, row := range r.Rows {
		if row.OverheadPct < -0.5 || row.OverheadPct > 5 {
			t.Errorf("%s write overhead = %.2f%%, want small and non-negative", row.Device, row.OverheadPct)
		}
	}
}

func TestA1Shape(t *testing.T) {
	r, err := RunA1()
	if err != nil {
		t.Fatal(err)
	}
	// OCC adds no meaningful cost when uncontended...
	if over := (r.QuiescentOCCMs - r.QuiescentLockMs) / r.QuiescentLockMs; over > 0.05 {
		t.Errorf("quiescent OCC overhead %.1f%%, want < 5%%", 100*over)
	}
	// ...and admits user writes during migration, which the lock cannot.
	if r.ConcurrentWritesOCC == 0 {
		t.Error("OCC admitted no concurrent writes")
	}
	if r.ContendedOCC.Conflicts == 0 || r.ContendedOCC.LockFallbacks != 1 {
		t.Errorf("contended OCC stats = %+v", r.ContendedOCC)
	}
}

func TestA2Shape(t *testing.T) {
	r, err := RunA2()
	if err != nil {
		t.Fatal(err)
	}
	if r.Slowdown < 1.1 {
		t.Errorf("sync-all slowdown = %.2fx, affinity shows no benefit", r.Slowdown)
	}
}

func TestA3Shape(t *testing.T) {
	r, err := RunA3()
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 1.1 {
		t.Errorf("SCM cache speedup = %.2fx, want > 1.1x", r.Speedup)
	}
	if r.HitRate < 0.3 {
		t.Errorf("hit rate = %.2f on a Zipfian workload", r.HitRate)
	}
}

func TestA4Shape(t *testing.T) {
	r, err := RunA4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		var total int64
		for _, b := range row.TierBytes {
			total += b
		}
		if total == 0 {
			t.Errorf("policy %s placed no data", row.Policy)
		}
		if row.HotReadUs <= 0 {
			t.Errorf("policy %s hot-read latency = %v", row.Policy, row.HotReadUs)
		}
	}
	// HotCold must have demoted the cold bulk off the small PM tier.
	for _, row := range r.Rows {
		if row.Policy == "hotcold" && row.TierBytes[2] == 0 {
			t.Error("hotcold policy never demoted cold data to HDD")
		}
	}
}

func TestA5Shape(t *testing.T) {
	r, err := RunA5()
	if err != nil {
		t.Fatal(err)
	}
	// Paper claim: < 0.025% space overhead (1 B per 4 KiB block).
	if r.OverheadPct > 0.025 {
		t.Errorf("BLT overhead = %.4f%%, exceeds the paper's 0.025%% claim", r.OverheadPct)
	}
	if r.Runs == 0 || r.Files == 0 {
		t.Errorf("BLT stats empty: %+v", r)
	}
}

func TestA6Shape(t *testing.T) {
	r, err := RunA6()
	if err != nil {
		t.Fatal(err)
	}
	if !r.FailoverOK {
		t.Error("failover reads did not serve from the replica")
	}
	if r.OverheadPct < 1 {
		t.Errorf("replication overhead %.1f%% suspiciously free (HDD mirror should cost)", r.OverheadPct)
	}
	if r.ReplicatedMBps <= 0 || r.PlainMBps <= r.ReplicatedMBps {
		t.Errorf("throughputs: plain %.1f, replicated %.1f", r.PlainMBps, r.ReplicatedMBps)
	}
}

func TestE5Shape(t *testing.T) {
	r, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("want rows for 1/4/8 workers, got %d", len(r.Rows))
	}
	if !r.Deterministic {
		t.Fatal("post-migration placement diverged across worker counts")
	}
	for _, row := range r.Rows {
		if row.Executed != e5Files {
			t.Errorf("workers=%d executed %d moves, want %d", row.Workers, row.Executed, e5Files)
		}
		if row.BytesMoved != int64(e5Files)*e5FileSize {
			t.Errorf("workers=%d moved %d bytes", row.Workers, row.BytesMoved)
		}
	}
	// Wall-clock must improve with workers; the acceptance bar (>= 2x at 4
	// workers) is asserted loosely here to keep CI robust under load, and
	// recorded precisely in EXPERIMENTS.md.
	if r.SpeedupAt4 < 1.3 {
		t.Errorf("4-worker speedup = %.2fx, want clearly > 1x", r.SpeedupAt4)
	}
}

func TestE6Shape(t *testing.T) {
	r, err := RunE6()
	if err != nil {
		t.Fatal(err)
	}
	// Replicated working set rides out both fault phases without a single
	// user-visible error; the unreplicated baseline collapses.
	if r.TransientUserErrs != 0 {
		t.Errorf("transient phase: %d user-visible errors, want 0", r.TransientUserErrs)
	}
	if r.OutageUserErrs != 0 {
		t.Errorf("outage phase: %d user-visible errors, want 0", r.OutageUserErrs)
	}
	if r.PlainUserErrs == 0 {
		t.Error("unreplicated baseline saw no errors — the injected outage did nothing")
	}
	// Transient faults are absorbed by retry, not masked by chance.
	if r.TransientFaults == 0 {
		t.Error("transient phase injected no device faults — probability miscalibrated")
	}
	if r.TransientRetries == 0 {
		t.Error("no retries recorded — transient faults were not absorbed by the retry path")
	}
	// The breaker quarantined the faulty tier and the runner refused to
	// migrate onto it.
	if !r.Quarantined {
		t.Error("sticky outage did not quarantine the faulty tier")
	}
	if !r.MigrateRefused {
		t.Error("migration onto the quarantined tier was not refused")
	}
	// Every PM-mirrored file degraded during the outage and every one was
	// repaired by reintegration.
	if r.DegradedReplicas != e6WFiles {
		t.Errorf("degraded replicas = %d, want %d", r.DegradedReplicas, e6WFiles)
	}
	if r.Repaired != r.DegradedReplicas {
		t.Errorf("repaired %d of %d degraded replicas", r.Repaired, r.DegradedReplicas)
	}
	if !r.HealthyAfter {
		t.Error("tier did not return to healthy after recovery")
	}
	if !r.FailbackOK {
		t.Error("repaired PM mirrors could not serve reads when the SSD tier failed")
	}
	if !r.Deterministic {
		t.Error("drill counters diverged across seeded reruns")
	}
}

func TestE7Shape(t *testing.T) {
	r, err := RunE7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("want rows for widths 1/2/4, got %d", len(r.Rows))
	}
	// The fan-out may change wall time and nothing else.
	if !r.ByteIdentical {
		t.Fatal("fan-out read back different bytes than serial dispatch")
	}
	if !r.Deterministic {
		t.Fatal("final placement diverged across fan-out widths")
	}
	// Acceptance floor: >= 1.5x read throughput on three-tier striped files
	// at full width (measured ~2.8x; asserted loosely enough to stay robust
	// under CI load, recorded precisely in EXPERIMENTS.md). Writes and
	// fsync overlap the same way. Wall-clock ratios only hold when the
	// modeled device sleeps dominate CPU time — not under -race (see
	// internal/race), where only the correctness invariants above apply.
	if race.Enabled {
		t.Log("race detector on: skipping wall-clock speedup gates")
		return
	}
	if r.ReadSpeedup < 1.5 {
		t.Errorf("full-width read speedup = %.2fx, want >= 1.5x", r.ReadSpeedup)
	}
	if r.WriteSpeedup < 1.3 {
		t.Errorf("full-width write speedup = %.2fx, want clearly > 1x", r.WriteSpeedup)
	}
	if r.SyncSpeedup < 1.3 {
		t.Errorf("full-width sync speedup = %.2fx, want clearly > 1x", r.SyncSpeedup)
	}
}

func TestE8Shape(t *testing.T) {
	// Small iteration budget: the shape test checks correctness invariants
	// and row structure, not throughput (exact numbers live in
	// EXPERIMENTS.md; the acceptance comparison runs via muxbench -exp e8).
	r, err := RunE8Sized(512)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(e8Goroutines) {
		t.Fatalf("want %d sweep rows, got %d", len(e8Goroutines), len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.G != e8Goroutines[i] {
			t.Fatalf("row %d: goroutines = %d, want %d", i, row.G, e8Goroutines[i])
		}
		if row.Ops <= 0 || row.OpsPerSec <= 0 {
			t.Fatalf("row g=%d: no ops measured (ops=%d ops/s=%.0f)", row.G, row.Ops, row.OpsPerSec)
		}
	}
	if r.OpsAt16 <= 0 {
		t.Fatal("missing headline OpsAt16 measurement")
	}
	// Concurrency must never trade away correctness: every cached read saw
	// the staged pattern and the namespace accounting balanced.
	if !r.ByteIdentical {
		t.Fatal("a concurrent cached read returned bytes != staged pattern")
	}
	if !r.Consistent {
		t.Fatal("Statfs accounting did not balance after churn")
	}
}

func TestE9Shape(t *testing.T) {
	// Small budget, one rep per mode: the shape test checks that both modes
	// run, the oracles hold, and the enabled run's instruments actually saw
	// the workload. The overhead number itself is noise at this size — the
	// 5% acceptance gate runs via muxbench -exp e9 -e9gate 5.
	r, err := RunE9Sized(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Reps) != 2 {
		t.Fatalf("want 2 reps (off+on), got %d", len(r.Reps))
	}
	if r.Reps[0].Enabled || !r.Reps[1].Enabled {
		t.Fatalf("want alternating off/on order, got %+v", r.Reps)
	}
	if r.OnOpsPerSec <= 0 || r.OffOpsPerSec <= 0 {
		t.Fatalf("missing mode throughput (on=%.0f off=%.0f)", r.OnOpsPerSec, r.OffOpsPerSec)
	}
	if !r.Recorded {
		t.Fatal("telemetry-enabled run recorded no reads or meta ops")
	}
	if !r.ByteIdentical {
		t.Fatal("a cached read returned bytes != staged pattern")
	}
	if !r.Consistent {
		t.Fatal("Statfs accounting did not balance after churn")
	}
	// The enabled run must report per-tier quantiles for the hot tier.
	var sawHotRead bool
	for _, op := range r.Ops {
		if op.Op == "read" && op.Tier == 0 && op.Count > 0 && op.P50 > 0 {
			sawHotRead = true
		}
	}
	if !sawHotRead {
		t.Fatal("no per-tier read latency distribution in the enabled run")
	}
}

func TestE10Shape(t *testing.T) {
	// Full-size run (it is wall-clocked but small: ~35 MiB of governed
	// reads per configuration). Thresholds sit well under the observed
	// ratios (routed vs migrate measured 1.15–1.30x across runs) so CI
	// scheduling noise cannot flake the shape test.
	r, err := RunE10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 configurations, got %d", len(r.Rows))
	}
	if !r.ByteIdentical {
		t.Fatal("a read returned bytes != staged pattern")
	}
	for _, row := range r.Rows {
		if row.UserErrs != 0 {
			t.Fatalf("%s surfaced %d read errors, want 0", row.Config, row.UserErrs)
		}
		if row.MBps <= 0 {
			t.Fatalf("%s measured no throughput", row.Config)
		}
	}
	// The tentpole claim: two routable copies beat the single fast
	// placement, and comfortably beat mirrors used only as error fallback.
	// These are wall-clock ratios between concurrent phases and hold only
	// when the modeled device sleeps dominate CPU time — not under -race
	// (see internal/race); the correctness and router-share invariants are
	// still asserted there.
	if !race.Enabled {
		if r.RoutedVsMigrate <= 1.05 {
			t.Fatalf("routed vs migrate-only = %.2fx, want > 1.05x", r.RoutedVsMigrate)
		}
		if r.RoutedVsFallback <= 1.2 {
			t.Fatalf("routed vs fallback-only = %.2fx, want > 1.2x", r.RoutedVsFallback)
		}
	}
	// Degraded mirror: throughput degrades toward SSD-only instead of
	// collapsing onto the browned-out device, with zero user errors
	// (asserted above) and the router visibly abandoning the sick copy.
	if r.DegradedVsFallback < 0.5 {
		t.Fatalf("degraded-mirror vs fallback-only = %.2fx, want >= 0.5x", r.DegradedVsFallback)
	}
	if r.HealthyMirrorShare <= 0.25 {
		t.Fatalf("healthy mirror share = %.0f%%, want routed reads actually using the mirror", 100*r.HealthyMirrorShare)
	}
	if r.DegradedMirrorShare >= r.HealthyMirrorShare {
		t.Fatalf("mirror share did not drop when the mirror browned out: %.0f%% -> %.0f%%",
			100*r.HealthyMirrorShare, 100*r.DegradedMirrorShare)
	}
}

func TestE11Shape(t *testing.T) {
	// Smoke-size run: the sweep itself is full-size (every op, every crash
	// point — it is deterministic and cheap), only the recovery timing
	// namespaces shrink. No wall-clock speedup assertions on the parallel
	// columns: CI hosts may have a single core, where the sharded path runs
	// but cannot beat serial time. The checkpoint ratio is asserted because
	// it reflects replay *work* (snapshot+delta vs full history), which
	// does not depend on core count.
	r, err := RunE11(E11Options{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweep) != 10 {
		t.Fatalf("want 10 swept ops, got %d", len(r.Sweep))
	}
	for _, row := range r.Sweep {
		if row.Points < 2 {
			t.Fatalf("op %s swept only %d crash points; the op made no durable steps", row.Op, row.Points)
		}
		if row.Violations != 0 {
			t.Fatalf("op %s: %d crash points violated the recovery contract", row.Op, row.Violations)
		}
	}
	if r.Violations != 0 || r.PointsSwept < 50 {
		t.Fatalf("sweep totals: %d points, %d violations", r.PointsSwept, r.Violations)
	}
	if len(r.Recovery) == 0 {
		t.Fatal("no recovery timing rows")
	}
	for _, row := range r.Recovery {
		if row.Workers < 2 {
			t.Fatalf("parallel config ran with %d workers; want at least 2", row.Workers)
		}
		if row.ReplaySerialMs <= 0 || row.ReplayParallelMs <= 0 || row.FsckSerialMs <= 0 || row.FsckParallelMs <= 0 {
			t.Fatalf("recovery row %d files has a zero timing: %+v", row.Files, row)
		}
	}
	ck := r.Checkpoint
	if ck.FullLogMs <= 0 || ck.CheckpointMs <= 0 {
		t.Fatalf("checkpoint row missing timings: %+v", ck)
	}
	if ck.Speedup <= 1.2 {
		t.Fatalf("checkpointed replay speedup = %.2fx, want > 1.2x (replay must be O(delta), not O(history))", ck.Speedup)
	}
}

func TestE12Shape(t *testing.T) {
	// Smoke-size run over real loopback RPC. No wall-clock speedup
	// assertion here: under the race detector (make race runs this) the
	// instrumented wire encode/decode dwarfs the governed service sleeps, so
	// fan-out overlap cannot show. The scaling gate is enforced where the
	// measurement is honest — `muxbench -exp e12 -e12smoke` in make
	// smoke/CI runs CheckE12 uninstrumented and exits nonzero below 1.5×.
	// The correctness gates (zero degraded-read errors, reconstruction
	// actually exercised, clean scrub after rebuild, space overhead) are
	// timing-independent and asserted on every run.
	r, err := RunE12(E12Options{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scale) != 3 {
		t.Fatalf("smoke run want 3 scaling rows, got %d", len(r.Scale))
	}
	for _, row := range r.Scale {
		if row.WriteMBps <= 0 || row.ReadMBps <= 0 {
			t.Fatalf("%d+%d row measured no throughput: %+v", row.DataNodes, row.ParityNodes, row)
		}
	}
	if r.Degraded.UserErrors != 0 {
		t.Fatalf("node-loss drill surfaced %d user-visible errors, want 0", r.Degraded.UserErrors)
	}
	if r.Degraded.DegradedReads == 0 {
		t.Fatal("drill read everything without a parity reconstruction; the node kill was ineffective")
	}
	if r.Degraded.BytesRead != 8<<20 {
		t.Fatalf("drill served %d bytes, want the whole 8 MiB file", r.Degraded.BytesRead)
	}
	if r.Rebuild.Bytes == 0 || r.Rebuild.MBps <= 0 {
		t.Fatalf("rebuild reported no work: %+v", r.Rebuild)
	}
	if r.Rebuild.ScrubMismatches != 0 {
		t.Fatalf("%d parity mismatches after rebuild", r.Rebuild.ScrubMismatches)
	}
	if r.Overhead.Ratio < 1.0 || r.Overhead.Ratio > 1.3 {
		t.Fatalf("4+1 space overhead %.2fx outside (1.0, 1.3]: %+v", r.Overhead.Ratio, r.Overhead)
	}
}
