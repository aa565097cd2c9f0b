package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// splitPolicy places /w* files on tier 1 and everything else on tier 0,
// honoring the (possibly quarantine-filtered) tier list — unlike Pinned,
// which ignores it — so the tests observe write redirection and placement
// filtering. It plans no migrations.
func splitPolicy() policy.Policy {
	return policy.Func{
		PolicyName: "split",
		Place: func(ctx policy.WriteCtx, tiers []policy.TierInfo) int {
			want := 0
			if strings.HasPrefix(ctx.Path, "/w") {
				want = 1
			}
			for _, t := range tiers {
				if t.ID == want {
					return t.ID
				}
			}
			return tiers[0].ID
		},
	}
}

// setBreakerCooldown changes the breaker cooldown of every registered tier
// (and of tiers added later). Call it before the test issues I/O.
func (r *rig) setBreakerCooldown(d time.Duration) {
	r.m.breakerCooldown = d
	for _, t := range r.m.tierTab.Load().tiers {
		t.health.Cooldown = d
	}
}

// healthByID indexes a TierHealth snapshot by tier id.
func healthByID(m *Mux) map[int]TierHealthInfo {
	out := map[int]TierHealthInfo{}
	for _, h := range m.TierHealth() {
		out[h.TierID] = h
	}
	return out
}

func TestRetryAbsorbsTransientFaults(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	payload := bytes.Repeat([]byte{0x6B}, 64*1024)
	f := writeFile(t, r.m, "/t", payload)
	defer f.Close()

	// One in four PM reads faults transiently; with 3 retries per op the
	// chance of an op exhausting its budget is 0.4% — and the seeded
	// sequence below never does.
	r.pm.InjectFaults(device.FaultPlan{Seed: 7, ReadErrProb: 0.25})
	defer r.pm.ClearFaults()

	buf := make([]byte, len(payload))
	for i := 0; i < 32; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("read %d not absorbed by retry: %v", i, err)
		}
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("retried reads returned wrong data")
	}
	h := healthByID(r.m)[r.ids.pm]
	if h.Retries == 0 || h.Faults == 0 {
		t.Errorf("health shows faults=%d retries=%d, want both > 0", h.Faults, h.Retries)
	}
	if h.State != "healthy" {
		t.Errorf("tier state = %s after absorbed transients, want healthy", h.State)
	}
}

func TestBreakerQuarantinesAndFastFails(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	// A huge cooldown so the breaker cannot half-open mid-test.
	r.setBreakerCooldown(time.Hour)

	payload := bytes.Repeat([]byte{0x21}, 32*1024)
	f := writeFile(t, r.m, "/q", payload)
	defer f.Close()
	if err := r.m.SetReplica("/q", r.ids.ssd); err != nil {
		t.Fatal(err)
	}

	// Sticky faults: every PM op fails hard (non-transient, no retries).
	r.pm.InjectFaults(device.FaultPlan{Seed: 1, ReadErrProb: 1, WriteErrProb: 1, Sticky: true})
	defer r.pm.ClearFaults()

	// Each of the first breakerThreshold reads faults on the device and is
	// served by the replica — no user-visible errors while the breaker
	// charges up.
	buf := make([]byte, len(payload))
	for i := 0; i < breakerThreshold; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("read %d not served by replica: %v", i, err)
		}
	}
	h := healthByID(r.m)[r.ids.pm]
	if h.State != "quarantined" || h.Quarantines != 1 {
		t.Fatalf("after %d consecutive faults: state=%s quarantines=%d", breakerThreshold, h.State, h.Quarantines)
	}

	// Placement and planning no longer see the tier.
	for _, ti := range r.m.tierInfos() {
		if ti.ID == r.ids.pm {
			t.Error("quarantined tier still offered to the policy")
		}
	}

	// Further reads fast-fail into the fallback without touching the sick
	// device at all.
	before := r.pm.Stats()
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read under quarantine: %v", err)
	}
	if d := r.pm.Stats().Sub(before); d.Reads != 0 {
		t.Errorf("quarantined tier saw %d device reads, want 0 (fast-fail)", d.Reads)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("fallback read returned wrong data")
	}
}

func TestQuarantineRedirectsWrites(t *testing.T) {
	r := newRig(t, splitPolicy(), false)
	r.setBreakerCooldown(time.Hour)

	payload := bytes.Repeat([]byte{0x35}, 64*1024)
	f := writeFile(t, r.m, "/d", payload) // split policy: -> PM
	defer f.Close()
	if err := r.m.SetReplica("/d", r.ids.hdd); err != nil {
		t.Fatal(err)
	}

	r.pm.InjectFaults(device.FaultPlan{Seed: 2, ReadErrProb: 1, WriteErrProb: 1, Sticky: true})
	defer r.pm.ClearFaults()
	buf := make([]byte, len(payload))
	for i := 0; i < breakerThreshold; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !r.m.tierQuarantined(r.ids.pm) {
		t.Fatal("PM not quarantined")
	}

	// Overwriting a PM-mapped range now drains it: the write is redirected
	// to the policy's placement over the healthy tiers (SSD, the fastest
	// remaining) instead of failing against the quarantined tier.
	fresh := bytes.Repeat([]byte{0x99}, 16*1024)
	if _, err := f.WriteAt(fresh, 0); err != nil {
		t.Fatalf("write with quarantined home tier: %v", err)
	}
	usage := r.m.TierUsage()
	if usage[r.ids.pm] != int64(len(payload)-len(fresh)) {
		t.Errorf("PM still maps %d bytes, want %d drained to %d", usage[r.ids.pm], len(payload)-len(fresh), len(payload))
	}
	if usage[r.ids.ssd] != int64(len(fresh)) {
		t.Errorf("SSD maps %d bytes, want the %d redirected", usage[r.ids.ssd], len(fresh))
	}

	// The file reads back correctly with the outage still in force: the
	// redirected prefix serves from SSD, the PM remainder from the replica.
	want := append(append([]byte{}, fresh...), payload[len(fresh):]...)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("post-redirect contents diverged")
	}
}

func TestProbeRecoveryAndReintegration(t *testing.T) {
	r := newRig(t, splitPolicy(), false)
	r.setBreakerCooldown(2 * time.Millisecond)
	r.m.retryBackoff = 10 * time.Microsecond

	// A PM-authoritative canary (SSD replica) to drive probes, and four
	// SSD-authoritative files whose replicas live on PM.
	canary := bytes.Repeat([]byte{0x44}, 32*1024)
	cf := writeFile(t, r.m, "/c", canary)
	defer cf.Close()
	if err := r.m.SetReplica("/c", r.ids.ssd); err != nil {
		t.Fatal(err)
	}
	const nw = 4
	var wfs [nw]struct {
		f    vfs.File
		data []byte
	}
	for i := 0; i < nw; i++ {
		data := bytes.Repeat([]byte{byte(0x50 + i)}, 32*1024)
		f := writeFile(t, r.m, "/w"+string(rune('0'+i)), data)
		defer f.Close()
		if err := r.m.SetReplica("/w"+string(rune('0'+i)), r.ids.pm); err != nil {
			t.Fatal(err)
		}
		wfs[i].f, wfs[i].data = f, data
	}

	// Outage: every mirror write onto PM faults, degrading the replica
	// while the user write succeeds; four degradations trip the breaker.
	r.pm.InjectFaults(device.FaultPlan{Seed: 3, ReadErrProb: 1, WriteErrProb: 1, Sticky: true})
	for i := 0; i < nw; i++ {
		patch := bytes.Repeat([]byte{byte(0xA0 + i)}, 8*1024)
		if _, err := wfs[i].f.WriteAt(patch, 0); err != nil {
			t.Fatalf("user write %d failed on mirror fault: %v", i, err)
		}
		copy(wfs[i].data, patch)
	}
	h := healthByID(r.m)
	if h[r.ids.pm].State != "quarantined" {
		t.Fatalf("PM state = %s after %d mirror faults", h[r.ids.pm].State, nw)
	}
	if h[r.ids.pm].DegradedReplicas != nw {
		t.Fatalf("degraded replicas = %d, want %d", h[r.ids.pm].DegradedReplicas, nw)
	}

	// Past the cooldown the breaker half-opens; with the fault still in
	// force the probe fails, reopens the breaker, and the user read is
	// still served by the replica.
	r.clk.Advance(3 * time.Millisecond)
	buf := make([]byte, len(canary))
	if _, err := cf.ReadAt(buf, 0); err != nil {
		t.Fatalf("read during failed probe: %v", err)
	}
	if got := healthByID(r.m)[r.ids.pm]; got.State != "quarantined" {
		t.Fatalf("failed probe left state %s, want quarantined", got.State)
	}

	// Recovery: fault clears, cooldown elapses, the next read probes and
	// closes the breaker.
	r.pm.ClearFaults()
	r.clk.Advance(3 * time.Millisecond)
	if _, err := cf.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if got := healthByID(r.m)[r.ids.pm]; got.State != "healthy" {
		t.Fatalf("successful probe left state %s, want healthy", got.State)
	}

	// The next policy round reintegrates: every degraded replica is
	// re-mirrored.
	st, err := r.m.RunPolicyOnce()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplicasRepaired != nw {
		t.Fatalf("round repaired %d replicas, want %d", st.ReplicasRepaired, nw)
	}
	if got := healthByID(r.m)[r.ids.pm].DegradedReplicas; got != 0 {
		t.Fatalf("%d replicas still degraded after reintegration", got)
	}

	// The repaired PM mirrors now carry the writes made during the outage:
	// kill the SSD and read everything back.
	r.ssd.InjectFailure(true)
	defer r.ssd.InjectFailure(false)
	for i := 0; i < nw; i++ {
		got := make([]byte, len(wfs[i].data))
		if _, err := wfs[i].f.ReadAt(got, 0); err != nil {
			t.Fatalf("failback read %d: %v", i, err)
		}
		if !bytes.Equal(got, wfs[i].data) {
			t.Fatalf("repaired mirror %d diverged", i)
		}
	}
}

func TestRunnerDropsMovesOntoQuarantinedTiers(t *testing.T) {
	// A policy that ignores the filtered tier list (as Pinned does) and
	// insists on promoting everything to PM; the runner must drop the moves
	// when PM is quarantined.
	promote := policy.Func{
		PolicyName: "promote-all",
		Place: func(ctx policy.WriteCtx, tiers []policy.TierInfo) int {
			for _, t := range tiers {
				if t.ID == 1 {
					return 1
				}
			}
			return tiers[0].ID
		},
		Plan: func(tiers []policy.TierInfo, files []policy.FileStat, now time.Duration) []policy.Move {
			var out []policy.Move
			for _, f := range files {
				for _, tier := range f.Tiers {
					if tier != 0 {
						out = append(out, policy.Move{Path: f.Path, SrcTier: tier, DstTier: 0, Off: 0, N: -1, Promote: true})
					}
				}
			}
			return out
		},
	}
	r := newRig(t, promote, false)
	f := writeFile(t, r.m, "/mv", bytes.Repeat([]byte{8}, 32*1024)) // placed on SSD
	defer f.Close()

	// Quarantine PM directly (the breaker's unit transitions are covered
	// in internal/guard; this test is about the runner's safety net).
	r.m.tierRec(r.ids.pm).health.Trip()

	st, err := r.m.RunPolicyOnce()
	if err != nil {
		t.Fatal(err)
	}
	if st.Planned != 1 || st.QuarantineSkipped != 1 || st.Executed != 0 {
		t.Fatalf("stats = planned %d / qskipped %d / executed %d, want 1/1/0",
			st.Planned, st.QuarantineSkipped, st.Executed)
	}
	if usage := r.m.TierUsage(); usage[r.ids.pm] != 0 {
		t.Fatalf("runner moved %d bytes onto the quarantined tier", usage[r.ids.pm])
	}
}

// TestFlappingTierStress hammers reads, writes, policy rounds, and health
// snapshots against a tier whose fault injection flaps on and off, then
// verifies the system settles back to healthy with consistent metadata.
// Run with -race; the value of the test is the interleaving, not the
// counters.
func TestFlappingTierStress(t *testing.T) {
	r := newRig(t, splitPolicy(), false)
	r.setBreakerCooldown(500 * time.Microsecond)
	r.m.retryBackoff = 5 * time.Microsecond

	const nFiles = 4
	files := make([]vfs.File, nFiles)
	for i := range files {
		path := "/s" + string(rune('0'+i))
		files[i] = writeFile(t, r.m, path, bytes.Repeat([]byte{byte(i + 1)}, 64*1024))
		defer files[i].Close()
		if err := r.m.SetReplica(path, r.ids.hdd); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The flapper: alternate sticky outages and transient noise on PM.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for j := 0; j < 60; j++ {
			r.pm.InjectFaults(device.FaultPlan{
				Seed:        int64(j),
				ReadErrProb: 0.5, WriteErrProb: 0.5,
				Sticky: j%2 == 0,
			})
			r.clk.Advance(200 * time.Microsecond)
			r.pm.ClearFaults()
			r.clk.Advance(200 * time.Microsecond)
		}
	}()

	// Workers: one per file, errors expected and ignored — the assertions
	// come after the storm.
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := files[i]
			buf := make([]byte, 16*1024)
			patch := bytes.Repeat([]byte{byte(0x80 + i)}, 4*1024)
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				f.ReadAt(buf, int64(k%4)*16*1024)
				f.WriteAt(patch, int64(k%8)*8*1024)
			}
		}(i)
	}

	// The observer: policy rounds (repair included) and health snapshots
	// race the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.m.RunPolicyOnce()
			r.m.TierHealth()
		}
	}()

	wg.Wait()

	// Settle: clear faults, let the cooldown pass, probe every file, and
	// run reintegration rounds until nothing is left degraded.
	r.pm.ClearFaults()
	r.clk.Advance(time.Millisecond)
	buf := make([]byte, 64*1024)
	for i, f := range files {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Errorf("post-storm read %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := r.m.RunPolicyOnce(); err != nil {
			t.Fatalf("settling round: %v", err)
		}
	}
	h := healthByID(r.m)[r.ids.pm]
	if h.State != "healthy" {
		t.Errorf("PM state = %s after the storm settled", h.State)
	}
	if h.DegradedReplicas != 0 {
		t.Errorf("%d replicas still degraded after settling", h.DegradedReplicas)
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Errorf("fsck after the storm: %v", rep.Problems)
	}
}
