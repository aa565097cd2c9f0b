package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/policy"
)

var errWrongBytes = errors.New("read returned wrong bytes")

// replicaInfo fetches one path's ReplicaInfo (zero value when absent).
func replicaInfo(m *Mux, path string) ReplicaInfo {
	for _, ri := range m.Replicas() {
		if ri.Path == path {
			return ri
		}
	}
	return ReplicaInfo{MirrorTier: -1, LastRoute: -1}
}

// TestRoutingDisabledByDefault: with the knob off (the default), a
// replicated file's reads never touch the mirror device and no routing
// decision is ever counted — the exact pre-routing read path.
func TestRoutingDisabledByDefault(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	payload := bytes.Repeat([]byte{0x42}, 64*1024)
	f := writeFile(t, r.m, "/off", payload)
	defer f.Close()
	if err := r.m.SetReplica("/off", r.ids.pm); err != nil {
		t.Fatal(err)
	}
	if r.m.MirrorRouting() {
		t.Fatal("routing on by default")
	}

	before := r.pm.Stats()
	buf := make([]byte, len(payload))
	for i := 0; i < 10; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d := r.pm.Stats().Sub(before); d.Reads != 0 {
		t.Fatalf("mirror device served %d reads with routing off", d.Reads)
	}
	ri := replicaInfo(r.m, "/off")
	if ri.RoutedReads != 0 || ri.MirrorHits != 0 || ri.LastRoute != -1 {
		t.Fatalf("routing counters moved with routing off: %+v", ri)
	}
	if rt := r.m.Telemetry().Routing; rt.Enabled || rt.RoutedMirror+rt.RoutedPrimary != 0 {
		t.Fatalf("routing telemetry moved with routing off: %+v", rt)
	}
}

// TestRoutedReadServesMirror: SSD primary, PM mirror, routing on — the
// router sends reads to the faster mirror copy and books the decision.
func TestRoutedReadServesMirror(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	payload := bytes.Repeat([]byte{0x5A}, 64*1024)
	f := writeFile(t, r.m, "/hot", payload)
	defer f.Close()
	if err := r.m.SetReplica("/hot", r.ids.pm); err != nil {
		t.Fatal(err)
	}
	r.m.SetMirrorRouting(true)

	before := r.pm.Stats()
	buf := make([]byte, len(payload))
	for i := 0; i < 5; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatal("routed read returned wrong bytes")
		}
	}
	if d := r.pm.Stats().Sub(before); d.Reads == 0 {
		t.Fatal("mirror device saw no reads with routing on")
	}
	ri := replicaInfo(r.m, "/hot")
	if ri.RoutedReads == 0 || ri.MirrorHits == 0 {
		t.Fatalf("routing counters: %+v", ri)
	}
	if ri.LastRoute != r.ids.pm {
		t.Fatalf("LastRoute = %d, want mirror tier %d", ri.LastRoute, r.ids.pm)
	}
	rt := r.m.Telemetry().Routing
	if !rt.Enabled || rt.RoutedMirror == 0 || rt.MirrorHitRatio <= 0 {
		t.Fatalf("routing telemetry: %+v", rt)
	}
}

// TestRoutedReadNeverUsesQuarantinedMirror: while the mirror's device
// faults, every routed miss falls through to the healthy primary (no user
// errors), and once the breaker quarantines the mirror tier the router
// stops offering it the read at all.
func TestRoutedReadNeverUsesQuarantinedMirror(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	payload := bytes.Repeat([]byte{0x33}, 32*1024)
	f := writeFile(t, r.m, "/qm", payload)
	defer f.Close()
	if err := r.m.SetReplica("/qm", r.ids.pm); err != nil {
		t.Fatal(err)
	}
	r.m.SetMirrorRouting(true)

	r.pm.InjectFaults(device.FaultPlan{Seed: 1, ReadErrProb: 1, WriteErrProb: 1, Sticky: true})
	defer r.pm.ClearFaults()

	buf := make([]byte, len(payload))
	for i := 0; i < breakerThreshold+2; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("read %d: %v (mirror miss must fall back to primary)", i, err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
	if healthByID(r.m)[r.ids.pm].State != "quarantined" {
		t.Fatal("mirror tier not quarantined after sticky faults")
	}
	// Quarantined mirror: the sick device sees zero further ops.
	before := r.pm.Stats()
	for i := 0; i < 5; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d := r.pm.Stats().Sub(before); d.Reads != 0 {
		t.Fatalf("quarantined mirror saw %d reads", d.Reads)
	}
}

// TestRoutedReadQuarantinedPrimaryGoesToMirror: when the *primary* tier is
// quarantined, the router sends reads straight to the healthy mirror
// instead of bouncing through the error-fallback path. PM is the primary
// here because novafs reads always touch the device (xfslite can serve
// reads from its in-memory extents, so device faults never charge the
// breaker — same reason health_test.go drills PM).
func TestRoutedReadQuarantinedPrimaryGoesToMirror(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, false)
	r.setBreakerCooldown(time.Hour) // keep the breaker open for the whole test
	payload := bytes.Repeat([]byte{0x61}, 32*1024)
	f := writeFile(t, r.m, "/qp", payload)
	defer f.Close()
	if err := r.m.SetReplica("/qp", r.ids.ssd); err != nil {
		t.Fatal(err)
	}
	// Charge the breaker with routing off (routed reads would go to the
	// healthy mirror and never touch the faulting primary): each read
	// faults on the PM and is served by the replica fallback.
	r.pm.InjectFaults(device.FaultPlan{Seed: 1, ReadErrProb: 1, WriteErrProb: 1, Sticky: true})
	defer r.pm.ClearFaults()
	buf := make([]byte, len(payload))
	for i := 0; i < breakerThreshold+2; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if healthByID(r.m)[r.ids.pm].State != "quarantined" {
		t.Fatal("primary tier not quarantined")
	}
	r.m.SetMirrorRouting(true)
	before := r.pm.Stats()
	hits := replicaInfo(r.m, "/qp").MirrorHits
	for i := 0; i < 5; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatal("wrong bytes from mirror")
		}
	}
	if d := r.pm.Stats().Sub(before); d.Reads != 0 {
		t.Fatalf("quarantined primary saw %d reads", d.Reads)
	}
	if got := replicaInfo(r.m, "/qp").MirrorHits; got <= hits {
		t.Fatalf("mirror hits did not advance: %d -> %d", hits, got)
	}
}

// TestRoutedReadsVsReplicaChurn (-race): readers route against a mirror
// that is concurrently torn down, re-established, and repaired. The
// ClearReplica punch must never leak zeroed mirror bytes into a read.
func TestRoutedReadsVsReplicaChurn(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	payload := bytes.Repeat([]byte{0xAB}, 64*1024)
	f := writeFile(t, r.m, "/churn", payload)
	defer f.Close()
	if err := r.m.SetReplica("/churn", r.ids.pm); err != nil {
		t.Fatal(err)
	}
	r.m.SetMirrorRouting(true)

	const readers = 4
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(payload))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.ReadAt(buf, 0); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(buf, payload) {
					errCh <- errWrongBytes
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := r.m.ClearReplica("/churn"); err != nil {
				errCh <- err
				return
			}
			if err := r.m.SetReplica("/churn", r.ids.pm); err != nil {
				errCh <- err
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errCh:
		close(stop)
		<-done
		t.Fatal(err)
	case <-time.After(50 * time.Millisecond):
	}
	close(stop)
	<-done
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestRoutedReadsVsMigration (-race): routed reads race the primary
// migrating between tiers; every read must return the staged bytes.
func TestRoutedReadsVsMigration(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	payload := bytes.Repeat([]byte{0xCD}, 128*1024)
	f := writeFile(t, r.m, "/mig", payload)
	defer f.Close()
	if err := r.m.SetReplica("/mig", r.ids.pm); err != nil {
		t.Fatal(err)
	}
	r.m.SetMirrorRouting(true)

	const readers = 4
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(payload))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.ReadAt(buf, 0); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(buf, payload) {
					errCh <- errWrongBytes
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		src, dst := r.ids.ssd, r.ids.hdd
		for i := 0; i < 20; i++ {
			if _, err := r.m.MigrateRange("/mig", src, dst, 0, -1); err != nil {
				errCh <- err
				return
			}
			src, dst = dst, src
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errCh:
		close(stop)
		<-done
		t.Fatal(err)
	case <-time.After(50 * time.Millisecond):
	}
	close(stop)
	<-done
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestRoutedReadsVsQuarantineFlap (-race): the mirror device flaps between
// dead and healthy while routed readers hammer the file. Reads must never
// error (a mirror miss always falls back to the healthy primary) and must
// never return wrong bytes.
func TestRoutedReadsVsQuarantineFlap(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	payload := bytes.Repeat([]byte{0xEF}, 64*1024)
	f := writeFile(t, r.m, "/flap", payload)
	defer f.Close()
	if err := r.m.SetReplica("/flap", r.ids.pm); err != nil {
		t.Fatal(err)
	}
	r.m.SetMirrorRouting(true)

	const readers = 4
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(payload))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.ReadAt(buf, 0); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(buf, payload) {
					errCh <- errWrongBytes
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		r.pm.InjectFailure(true)
		time.Sleep(time.Millisecond)
		r.pm.InjectFailure(false)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	r.pm.InjectFailure(false)
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestEngineExecutesMirrorMoves: the migration engine dispatches Mirror
// moves as SetReplica/ClearReplica and books them in MigrationStats.
func TestEngineExecutesMirrorMoves(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	f := writeFile(t, r.m, "/pm", bytes.Repeat([]byte{9}, 16*1024))
	f.Close()

	plan := func(moves ...policy.Move) {
		r.m.SetPolicy(policy.Func{
			PolicyName: "mirror-test",
			Plan: func([]policy.TierInfo, []policy.FileStat, time.Duration) []policy.Move {
				return moves
			},
		})
	}

	plan(policy.Move{Path: "/pm", SrcTier: 1, DstTier: 0, N: -1, Promote: true, Mirror: true})
	st, err := r.m.RunPolicyOnce()
	if err != nil {
		t.Fatal(err)
	}
	if st.MirrorsCreated != 1 || st.Executed != 1 {
		t.Fatalf("create round: %+v", st)
	}
	if tier, _ := r.m.Replica("/pm"); tier != r.ids.pm {
		t.Fatalf("Replica = %d after mirror move", tier)
	}

	plan(policy.Move{Path: "/pm", SrcTier: 0, DstTier: -1, N: -1, Mirror: true})
	if st, err = r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	if st.MirrorsCleared != 1 || st.Executed != 1 {
		t.Fatalf("clear round: %+v", st)
	}
	if tier, _ := r.m.Replica("/pm"); tier != -1 {
		t.Fatalf("Replica = %d after clear move", tier)
	}

	// Clearing an unreplicated file is a skip, not an error.
	if st, err = r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || st.Executed != 0 {
		t.Fatalf("re-clear round: %+v", st)
	}
}

// TestRunnerFillsReplicaFileStats: the Policy Runner hands policies the
// replica placement so they can budget mirror bytes.
func TestRunnerFillsReplicaFileStats(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 1}, false)
	f := writeFile(t, r.m, "/rs", bytes.Repeat([]byte{7}, 8192))
	f.Close()
	if err := r.m.SetReplica("/rs", r.ids.pm); err != nil {
		t.Fatal(err)
	}

	var got []policy.FileStat
	r.m.SetPolicy(policy.Func{
		PolicyName: "capture",
		Plan: func(_ []policy.TierInfo, files []policy.FileStat, _ time.Duration) []policy.Move {
			got = files
			return nil
		},
	})
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Replica != r.ids.pm || got[0].ReplicaDegraded {
		t.Fatalf("FileStat replica fields: %+v", got)
	}
}
