package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/policy"
	"muxfs/internal/policy/autotune"
	"muxfs/internal/vfs"
)

func TestTenantAttributionCountsOpsAndBytes(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	if err := r.m.RegisterTenant("alpha", "/a/"); err != nil {
		t.Fatal(err)
	}
	if err := r.m.RegisterTenant("beta", "/b/"); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}

	fa := writeFile(t, r.m, "/a/x", bytes.Repeat([]byte{1}, 8192))
	defer fa.Close()
	fb := writeFile(t, r.m, "/b/y", bytes.Repeat([]byte{2}, 4096))
	defer fb.Close()
	// An unattributed file: no tenant prefix matches.
	fo := writeFile(t, r.m, "/other", []byte("zzz"))
	defer fo.Close()

	buf := make([]byte, 4096)
	for i := 0; i < 3; i++ {
		if _, err := fa.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fb.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	snap := r.m.TenantTelemetrySnapshot()
	if len(snap) != 2 {
		t.Fatalf("tenant snapshot rows = %d, want 2", len(snap))
	}
	a, b := snap[0], snap[1] // sorted by name
	if a.Name != "alpha" || b.Name != "beta" {
		t.Fatalf("rows = %s, %s", a.Name, b.Name)
	}
	if a.Reads != 3 || a.ReadBytes != 3*4096 {
		t.Fatalf("alpha reads=%d bytes=%d, want 3/%d", a.Reads, a.ReadBytes, 3*4096)
	}
	if a.Writes != 1 || a.WriteBytes != 8192 {
		t.Fatalf("alpha writes=%d bytes=%d", a.Writes, a.WriteBytes)
	}
	if b.Reads != 1 || b.Writes != 1 {
		t.Fatalf("beta reads=%d writes=%d", b.Reads, b.Writes)
	}
	// Virtual-time latency recorded: a governed device read takes nonzero
	// simclock time, so the p99 must be positive and deterministic.
	if a.ReadP99 <= 0 {
		t.Fatalf("alpha virtual read p99 = %v", a.ReadP99)
	}

	// Occupancy gauges appear after a policy round.
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	snap = r.m.TenantTelemetrySnapshot()
	if snap[0].FastBytes != 8192 {
		t.Fatalf("alpha fast-tier bytes = %d, want 8192", snap[0].FastBytes)
	}
	if snap[1].TierBytes[0] != 4096 {
		t.Fatalf("beta tier bytes = %v", snap[1].TierBytes)
	}

	// The unified snapshot carries the section too.
	tel := r.m.Telemetry()
	if len(tel.Tenants) != 2 {
		t.Fatalf("telemetry snapshot tenants = %d", len(tel.Tenants))
	}

	// Unregistering drops attribution back to the nil-gate path.
	r.m.UnregisterTenant("alpha")
	r.m.UnregisterTenant("beta")
	if got := r.m.TenantTelemetrySnapshot(); got != nil {
		t.Fatalf("tenants after unregister: %v", got)
	}
	if _, err := fa.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTenantLongestPrefixWins(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	if err := r.m.RegisterTenant("broad", "/t/"); err != nil {
		t.Fatal(err)
	}
	if err := r.m.RegisterTenant("narrow", "/t/deep/"); err != nil {
		t.Fatal(err)
	}
	tab := r.m.tenantsP.Load()
	if ts := tab.resolve("/t/deep/file"); ts == nil || ts.name != "narrow" {
		t.Fatalf("resolve(/t/deep/file) = %v", ts)
	}
	if ts := tab.resolve("/t/file"); ts == nil || ts.name != "broad" {
		t.Fatalf("resolve(/t/file) = %v", ts)
	}
	if ts := tab.resolve("/u/file"); ts != nil {
		t.Fatalf("resolve(/u/file) = %s, want nil", ts.name)
	}
	if err := r.m.RegisterTenant("", "/x/"); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if err := r.m.RegisterTenant("rel", "x/"); err == nil {
		t.Fatal("relative prefix accepted")
	}
}

func TestAutotunerAdjustsLivePolicy(t *testing.T) {
	r := newRig(t, policy.DefaultLRU(), false)
	if err := r.m.EnableAutotune(autotune.Options{MinIntervalOps: 1}); err != nil {
		t.Fatal(err)
	}
	f := writeFile(t, r.m, "/hot", bytes.Repeat([]byte{7}, 64*1024))
	defer f.Close()
	buf := make([]byte, 4096)
	// Drive rounds with read traffic between them; the tuner must progress
	// past warmup/baseline and issue probes without wedging migration.
	for i := 0; i < 6; i++ {
		for j := 0; j < 40; j++ {
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.m.RunPolicyOnce(); err != nil {
			t.Fatal(err)
		}
	}
	tn := r.m.Autotuner()
	if tn == nil {
		t.Fatal("autotuner not installed")
	}
	st := tn.Status()
	if st.Rounds != 6 {
		t.Fatalf("tuner rounds = %d, want 6", st.Rounds)
	}
	var probed bool
	for _, d := range tn.Log() {
		if d.Action == "probe" || d.Action == "accept" || d.Action == "revert" {
			probed = true
		}
	}
	if !probed {
		t.Fatalf("tuner never probed; log %+v", tn.Log())
	}
	// Every tuned param stays inside its own clamp — the no-wedge contract.
	for _, p := range st.Params {
		if p.Value < p.Min-1e-9 || p.Value > p.Max+1e-9 {
			t.Fatalf("param %s = %v escaped [%v, %v]", p.Name, p.Value, p.Min, p.Max)
		}
	}
	// The snapshot carries the tuner's families.
	var rounds int64 = -1
	for _, f := range r.m.Telemetry().Families {
		if f.Name == "mux_autotune_rounds_total" && len(f.Series) == 1 {
			rounds = *f.Series[0].Value
		}
	}
	if rounds != st.Rounds {
		t.Fatalf("mux_autotune_rounds_total = %d, want %d", rounds, st.Rounds)
	}
	r.m.DisableAutotune()
	if r.m.Autotuner() != nil {
		t.Fatal("tuner survived DisableAutotune")
	}
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
}

func TestEnableAutotuneRejectsUntunablePolicy(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	if err := r.m.EnableAutotune(autotune.Options{}); err == nil {
		t.Fatal("EnableAutotune accepted a policy with no knobs")
	}
}

// stripeFS wraps a plain tier FS with a StripeStatuser implementation so a
// rig can register a "composite" tier without real remote nodes.
type stripeFS struct {
	vfs.FileSystem
}

func (stripeFS) Geometry() (data, parity int) { return 2, 1 }

// TestQuotaDemotionAvoidsStripeAndQuarantinedTiers is the composition
// test: QuotaPolicy over a hierarchy containing an erasure-coded stripe
// tier, with mirror read routing enabled — quota enforcement must demote
// past the stripe set, and must stall (not error) when the only plain
// destination is quarantined.
func TestQuotaDemotionAvoidsStripeAndQuarantinedTiers(t *testing.T) {
	clkPol := &policy.QuotaPolicy{
		Base:   policy.Pinned{Tier: 0},
		Quotas: []policy.Quota{{Prefix: "/t/", Tier: 0, Bytes: 64 << 10}},
	}
	r := newRig(t, clkPol, false)
	r.m.SetMirrorRouting(true)

	// Add a fourth tier whose FS reports stripe status, profiled strictly
	// between SSD and HDD so liveOf sorts it as the tier right below SSD.
	prof := device.SSDProfile("stripe0")
	prof.ReadLatency = 30 * time.Microsecond
	dev := device.New(prof, r.clk)
	sfs, err := xfslite.New("stripe@ssd", dev)
	if err != nil {
		t.Fatal(err)
	}
	stripeID := r.m.AddTier(stripeFS{sfs}, prof)

	// Quarantine the plain SSD so the stripe tier is the nearest slower
	// tier below PM: the policy must skip it and demote straight to HDD.
	r.m.tierRec(r.ids.ssd).health.Trip()

	// Sanity: the policy view flags exactly the stripe tier.
	for _, ti := range r.m.tierInfos() {
		if ti.Stripe != (ti.ID == stripeID) {
			t.Fatalf("tierInfos stripe flags wrong: %+v", ti)
		}
	}

	if err := r.m.Mkdir("/t"); err != nil {
		t.Fatal(err)
	}
	var files []vfs.File
	for i := 0; i < 4; i++ {
		f := writeFile(t, r.m, fmt.Sprintf("/t/f%d", i), bytes.Repeat([]byte{byte(i)}, 32<<10))
		files = append(files, f)
		r.clk.Advance(time.Millisecond) // distinct LastAccess ordering
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()

	// 128 KiB under /t/ on PM against a 64 KiB quota: two files must go.
	st, err := r.m.RunPolicyOnce()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuotaDemotions != 2 {
		t.Fatalf("quota demotions = %d, want 2 (stats %+v)", st.QuotaDemotions, st)
	}
	usage := r.m.TierUsage()
	if usage[stripeID] != 0 {
		t.Fatalf("quota demotion landed %d bytes on the stripe tier", usage[stripeID])
	}
	if usage[r.ids.hdd] != 64<<10 {
		t.Fatalf("hdd usage = %d, want %d", usage[r.ids.hdd], 64<<10)
	}
	if usage[r.ids.pm] != 64<<10 {
		t.Fatalf("pm usage = %d, want exactly the quota", usage[r.ids.pm])
	}
	// The section is visible in the aggregate stats surface too.
	if got := r.m.LastMigration().QuotaDemotions; got != 2 {
		t.Fatalf("LastMigration quota demotions = %d", got)
	}

	// Now quarantine the HDD too: no plain slower tier remains, and the
	// stripe tier must STILL not become a demotion target — the quota goes
	// unenforced this round rather than fanning tenant overflow across the
	// stripe set.
	r.m.tierRec(r.ids.hdd).health.Trip()
	for _, f := range files[2:] {
		buf := make([]byte, 512)
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	if usage := r.m.TierUsage(); usage[stripeID] != 0 {
		t.Fatalf("quarantine pressure pushed %d bytes onto the stripe tier", usage[stripeID])
	}
}
