package core

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/policy"
	"muxfs/internal/telemetry"
)

// opByTier indexes a snapshot's per-tier op rows.
func opByTier(snap TelemetrySnapshot, tier int, op string) OpTelemetry {
	for _, o := range snap.Ops {
		if o.Tier == tier && o.Op == op {
			return o
		}
	}
	return OpTelemetry{}
}

// TestTelemetryRecordsWorkload checks that the instruments see a simple
// write/read/sync workload: per-tier counts, bytes, latency quantiles, and
// meta-op counters.
func TestTelemetryRecordsWorkload(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	payload := bytes.Repeat([]byte{0x5A}, 64*1024)
	f := writeFile(t, r.m, "/tel", payload)
	defer f.Close()

	buf := make([]byte, len(payload))
	for i := 0; i < 8; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	snap := r.m.Telemetry()
	if !snap.Enabled {
		t.Fatal("telemetry should default to enabled")
	}
	w := opByTier(snap, r.ids.pm, "write")
	if w.Count == 0 || w.Bytes < int64(len(payload)) {
		t.Fatalf("pm write telemetry = count %d bytes %d, want the staged payload", w.Count, w.Bytes)
	}
	rd := opByTier(snap, r.ids.pm, "read")
	if rd.Count < 8 || rd.Bytes < 8*int64(len(payload)) {
		t.Fatalf("pm read telemetry = count %d bytes %d, want >= 8 reads", rd.Count, rd.Bytes)
	}
	if rd.P50 <= 0 || rd.P99 < rd.P50 || rd.Max < rd.P99 {
		t.Fatalf("read quantiles inconsistent: p50=%v p99=%v max=%v", rd.P50, rd.P99, rd.Max)
	}
	sy := opByTier(snap, r.ids.pm, "sync")
	if sy.Count == 0 {
		t.Fatal("sync not recorded")
	}
	if snap.MetaOps["create"] == 0 || snap.MetaOps["sync"] == 0 {
		t.Fatalf("meta ops missing: %v", snap.MetaOps)
	}

	// Migration rows (tier -1) appear after a move and the OCC stats agree.
	if _, err := r.m.MigrateRange("/tel", r.ids.pm, r.ids.ssd, 0, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	snap = r.m.Telemetry()
	mig := opByTier(snap, -1, "migrate")
	if mig.Count != 1 {
		t.Fatalf("migrate telemetry count = %d, want 1", mig.Count)
	}
	if snap.OCC.Migrations == 0 {
		t.Fatal("snapshot did not subsume OCC stats")
	}

	// Reset zeroes the instruments but keeps them live.
	r.m.ResetTelemetry()
	snap = r.m.Telemetry()
	if o := opByTier(snap, r.ids.pm, "read"); o.Count != 0 {
		t.Fatalf("reset left read count %d", o.Count)
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if o := opByTier(r.m.Telemetry(), r.ids.ssd, "read"); o.Count == 0 {
		t.Fatal("instruments dead after reset")
	}
}

// TestTelemetryDisabledRecordsNothing checks the off switch: no counts, no
// quantiles, no traces — and the data path still works.
func TestTelemetryDisabledRecordsNothing(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	r.m.SetTelemetryEnabled(false)

	payload := bytes.Repeat([]byte{0x11}, 16*1024)
	f := writeFile(t, r.m, "/off", payload)
	defer f.Close()
	buf := make([]byte, len(payload))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	snap := r.m.Telemetry()
	if snap.Enabled {
		t.Fatal("snapshot claims enabled")
	}
	for _, o := range snap.Ops {
		if o.Count != 0 || o.Bytes != 0 {
			t.Fatalf("disabled telemetry recorded %+v", o)
		}
	}
	for name, c := range snap.MetaOps {
		if c != 0 {
			t.Fatalf("disabled telemetry counted meta op %s=%d", name, c)
		}
	}
	if len(snap.Traces) != 0 {
		t.Fatalf("disabled telemetry traced %d events", len(snap.Traces))
	}
}

// TestTelemetryTracesFailures checks that hard device faults land in the
// trace ring with the error attached, and quarantine transitions trace too.
func TestTelemetryTracesFailures(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	r.setBreakerCooldown(time.Hour)
	payload := bytes.Repeat([]byte{0x33}, 16*1024)
	f := writeFile(t, r.m, "/fault", payload)
	defer f.Close()
	if err := r.m.SetReplica("/fault", r.ids.ssd); err != nil {
		t.Fatal(err)
	}

	r.pm.InjectFaults(device.FaultPlan{Seed: 9, ReadErrProb: 1, WriteErrProb: 1, Sticky: true})
	defer r.pm.ClearFaults()

	buf := make([]byte, len(payload))
	for i := 0; i < breakerThreshold; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("read %d not served by replica: %v", i, err)
		}
	}

	snap := r.m.Telemetry()
	if o := opByTier(snap, r.ids.pm, "read"); o.Errors == 0 {
		t.Fatal("device faults not counted as read errors")
	}
	var readErrs, quarantines int
	for _, ev := range snap.Traces {
		switch {
		case ev.Op == "read" && ev.Err != "" && ev.Tier == r.ids.pm:
			readErrs++
			if ev.Path != "/fault" {
				t.Fatalf("trace path = %q, want /fault", ev.Path)
			}
		case ev.Op == "quarantine" && ev.Tier == r.ids.pm:
			quarantines++
		}
	}
	if readErrs == 0 {
		t.Fatalf("no failed-read trace events in %d traces", len(snap.Traces))
	}
	if quarantines == 0 {
		t.Fatal("breaker opened without a quarantine trace event")
	}
}

// TestMetricsHandler checks the HTTP export surface: Prometheus text at
// /metrics, the JSON snapshot at /metrics?format=json, and the trace ring
// at /debug/trace.
func TestMetricsHandler(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	payload := bytes.Repeat([]byte{0x42}, 8*1024)
	f := writeFile(t, r.m, "/http", payload)
	defer f.Close()
	buf := make([]byte, len(payload))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(r.m.MetricsHandler())
	defer srv.Close()

	// Prometheus text: right content type, contains the per-tier instrument
	// families and Mux's collected families, no unparsable lines.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE mux_tier_op_latency_ns histogram",
		"# TYPE mux_tier_op_bytes_total counter",
		"# TYPE mux_tier_used_bytes gauge",
		"# TYPE mux_cache_hits_total counter",
		`op="read"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	for i, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(l, "#") || l == "" {
			continue
		}
		if !strings.Contains(l, " ") {
			t.Fatalf("/metrics line %d unparsable: %q", i+1, l)
		}
	}

	// JSON snapshot.
	resp, err = srv.Client().Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap TelemetrySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics?format=json does not parse: %v", err)
	}
	if !snap.Enabled || len(snap.Ops) == 0 {
		t.Fatalf("JSON snapshot empty: %+v", snap)
	}

	// Trace ring.
	resp, err = srv.Client().Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var evs []telemetry.TraceEvent
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("/debug/trace does not parse: %v\n%s", err, body)
	}

	// Unknown paths 404.
	resp, err = srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/nope status %d, want 404", resp.StatusCode)
	}
}

// TestTelemetryStress is the -race gauntlet: concurrent recorders (reads,
// writes, syncs), snapshot readers, Prometheus encoders, a registry
// resetter, an enable/disable toggler, migrations, and intermittent device
// faults — all at once. The assertions are loose (totals exist, nothing
// panics); the value is the race detector seeing every pairing.
func TestTelemetryStress(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	payload := bytes.Repeat([]byte{0x77}, 32*1024)
	f := writeFile(t, r.m, "/stress", payload)
	defer f.Close()
	if err := r.m.SetReplica("/stress", r.ids.ssd); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 4
		iters   = 300
	)
	var wg sync.WaitGroup

	// Recorders: hammer the instrumented data path.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, len(payload))
			for i := 0; i < iters; i++ {
				f.ReadAt(buf, 0)
				if i%16 == 0 {
					f.WriteAt(payload[:4096], int64(w)*4096)
				}
				if i%64 == 0 {
					f.Sync()
				}
			}
		}(w)
	}

	// Snapshot readers: typed snapshot and both encoders.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/2; i++ {
				snap := r.m.Telemetry()
				_ = opByTier(snap, 0, "read")
				r.m.WriteMetrics(io.Discard)
			}
		}()
	}

	// Resetter + toggler: the registry's benign-race contract under fire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			r.m.ResetTelemetry()
			r.m.SetTelemetryEnabled(i%2 == 0)
		}
		r.m.SetTelemetryEnabled(true)
	}()

	// Migrator: bounce a range between tiers (conflicts/no-ops are fine).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/8; i++ {
			src, dst := r.ids.pm, r.ids.hdd
			if i%2 == 1 {
				src, dst = dst, src
			}
			r.m.MigrateRange("/stress", src, dst, 0, 8192)
		}
	}()

	// Fault chaos: transient read faults flap on and off.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/8; i++ {
			r.pm.InjectFaults(device.FaultPlan{Seed: int64(i), ReadErrProb: 0.2})
			r.pm.ClearFaults()
		}
	}()

	wg.Wait()

	// The system survived; a final snapshot and export still work.
	snap := r.m.Telemetry()
	if !snap.Enabled {
		t.Fatal("telemetry left disabled")
	}
	var out bytes.Buffer
	if err := r.m.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mux_tier_op_latency_ns") {
		t.Fatal("post-stress export missing instrument families")
	}
}
