package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"muxfs/internal/core"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// streamHash hashes the first n ops of client 0's stream of w for seed.
func streamHash(w *workload, seed int64, n int) [32]byte {
	g := w.newGen(seedFor(seed, 0), w.models(1)[0])
	h := sha256.New()
	for i := 0; i < n; i++ {
		o := g.next()
		binary.Write(h, binary.LittleEndian, struct {
			Typ    uint8
			File   int32
			Off, N int64
			Sync   bool
		}{uint8(o.typ), o.file, o.off, o.n, o.sync})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for name, mk := range workloads {
		if a, b := streamHash(mk(), 7, 20000), streamHash(mk(), 7, 20000); a != b {
			t.Errorf("%s: seed 7 gave two different op streams", name)
		}
	}
}

func TestDifferentSeedDifferentStream(t *testing.T) {
	for name, mk := range workloads {
		if a, b := streamHash(mk(), 7, 20000), streamHash(mk(), 8, 20000); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

// detCounts sets up w and runs ops ops, untraced or traced.
func detCounts(t *testing.T, w *workload, seed int64, tr *tracer, ops int) det {
	t.Helper()
	ss, err := setup(w, seed, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.teardown()
	r, err := ss.measure(ops, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d failed ops: %v", w.name, r.failed, r.errs)
	}
	return r.det
}

// TestSameSeedSameCounts: on the single-client workloads, virtual time,
// device bytes and space — the inputs of sim_us_per_op, dev_write_amp and
// space_amp — repeat exactly for a seed, and tracing does not move them.
func TestSameSeedSameCounts(t *testing.T) {
	for _, c := range []struct {
		w   *workload
		ops int
	}{{hotLocal(), 5000}, {tierChurn(), 3000}, {stripeCold(), 300}} {
		a := detCounts(t, c.w, 11, nil, c.ops)
		b := detCounts(t, c.w, 11, nil, c.ops)
		if a != b {
			t.Errorf("%s: untraced runs differ: %+v vs %+v", c.w.name, a, b)
		}
		if a.sim == 0 || a.devBytes == 0 || a.used == 0 || a.live == 0 {
			t.Errorf("%s: empty counts %+v", c.w.name, a)
		}
		if tc := detCounts(t, c.w, 11, newTracer(1024), c.ops); tc != a {
			t.Errorf("%s: traced run differs: %+v vs %+v", c.w.name, tc, a)
		}
	}
}

// TestWrappersForward: the wrappers keep the interfaces Mux discovers by
// type assertion and wrap every handle they return.
func TestWrappersForward(t *testing.T) {
	tr := newTracer(0)
	s, err := buildTiered(tr, tieredSpec{pmBytes: 64 << 20, policy: policy.DefaultLRU()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for _, ti := range s.mux.Tiers() {
		if _, ok := ti.FS.(vfs.CrashRecoverer); !ok {
			t.Errorf("tier %s: wrapper dropped vfs.CrashRecoverer", ti.FS.Name())
		}
	}
	if _, ok := s.muxFS.(vfs.CrashRecoverer); !ok {
		t.Error("Mux wrapper dropped vfs.CrashRecoverer")
	}
	f, err := s.muxFS.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*tracedFile); !ok {
		t.Errorf("Create returned %T, want a traced handle", f)
	}
	tr.on.Store(true)
	if _, err := f.WriteAt(make([]byte, blockSize), 0); err != nil {
		t.Fatal(err)
	}
	tr.on.Store(false)
	sum := tr.analyze()
	if len(sum.dur[lCore][kWrite]) != 1 || len(sum.dur[lPM][kWrite]) != 1 {
		t.Errorf("one traced write recorded %d core and %d fs.pm write spans",
			len(sum.dur[lCore][kWrite]), len(sum.dur[lPM][kWrite]))
	}
	if sum.tierCallsFromCore == 0 {
		t.Error("the fs.pm write span was not parented under the core span")
	}

	st, err := buildStripe(newTracer(0), stripeSpec{pmBytes: 32 << 20, nodes: 3, parity: 1, coldPrefix: "/cold/"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	stripes := 0
	for _, ti := range st.mux.Tiers() {
		if _, ok := ti.FS.(core.StripeStatuser); ok {
			stripes++
		}
	}
	if stripes != 1 {
		t.Errorf("%d tiers answer core.StripeStatuser through the wrapper, want 1", stripes)
	}
}

// TestChargedSelfTime: self time subtracts the union of the children;
// charged self time splits overlap between concurrent siblings evenly, so
// it adds up to the root.
func TestChargedSelfTime(t *testing.T) {
	tr := newTracer(0)
	tr.spans = []span{
		{start: 0, end: 100, parent: -1, tag: tagOf(lCore, kSync)},
		{start: 10, end: 30, parent: -1, tag: tagOf(lPM, kSync)},
		{start: 20, end: 60, parent: -1, tag: tagOf(lSSD, kSync)},
		{start: 200, end: 210, parent: -1, tag: tagOf(lHDD, kRead)}, // no enclosing span
	}
	sum := tr.analyze()
	if got := sum.self[lCore][kSync]; len(got) != 1 || got[0] != 50 {
		t.Errorf("core self = %v, want [50]", got)
	}
	want := map[layer]float64{lCore: 50, lPM: 15, lSSD: 35, lHDD: 10}
	for l, v := range want {
		if math.Abs(sum.selfSum[l]-v) > 1e-9 {
			t.Errorf("%s charged self = %v, want %v", layerName[l], sum.selfSum[l], v)
		}
	}
	if sum.allSelf != 110 || sum.rootSum != 110 {
		t.Errorf("charged self %v, roots %v: want both 110", sum.allSelf, sum.rootSum)
	}
	if sum.tierCallsFromCore != 2 {
		t.Errorf("%d tier calls parented under core, want 2", sum.tierCallsFromCore)
	}
}

// TestTracedRunIsCorrect runs the whole traced path on a short run:
// shadow-model checks, crash recovery, fsck and the count comparison.
func TestTracedRunIsCorrect(t *testing.T) {
	rep, err := runTraced(hotLocal(), options{seed: 5}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("traced hot-local: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	if r := rep.Metrics["trace.self_sum_ratio"].Value; r < 0.9 || r > 1.1 {
		t.Errorf("trace.self_sum_ratio = %v, want within 0.9–1.1", r)
	}
}
