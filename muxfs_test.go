package muxfs_test

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"muxfs"
)

func threeTier(t *testing.T, cfg muxfs.Config) *muxfs.System {
	t.Helper()
	cfg.Tiers = []muxfs.TierSpec{
		{Kind: muxfs.PM, Name: "pmem0"},
		{Kind: muxfs.SSD, Name: "ssd0"},
		{Kind: muxfs.HDD, Name: "hdd0", Capacity: 1 << 30},
	}
	sys, err := muxfs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEndToEnd(t *testing.T) {
	sys := threeTier(t, muxfs.Config{Policy: muxfs.NewLRUPolicy()})
	fs := sys.FS

	if err := fs.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/data/log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte("tiered!"), 10000)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// Migrate across the hierarchy and verify through the public API.
	pm, hdd := sys.TierID("pmem0"), sys.TierID("hdd0")
	if pm < 0 || hdd < 0 {
		t.Fatalf("TierID lookup failed: %d %d", pm, hdd)
	}
	moved, err := fs.Migrate("/data/log", pm, hdd)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("nothing migrated")
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted across migration")
	}
	if sys.TierID("nope") != -1 {
		t.Fatal("unknown tier resolved")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := muxfs.New(muxfs.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	_, err := muxfs.New(muxfs.Config{
		Tiers:         []muxfs.TierSpec{{Kind: muxfs.SSD, Name: "ssd0"}},
		SCMCacheBytes: 1 << 20,
	})
	if err == nil {
		t.Fatal("SCM cache without a PM tier accepted")
	}
}

func TestFuncPolicy(t *testing.T) {
	placed := 0
	sys := threeTier(t, muxfs.Config{
		Policy: muxfs.NewFuncPolicy("everything-to-hdd",
			func(ctx muxfs.WriteCtx, tiers []muxfs.TierInfo) int {
				placed++
				return tiers[len(tiers)-1].ID // slowest
			}, nil),
	})
	f, err := sys.FS.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if placed == 0 {
		t.Fatal("custom policy never consulted")
	}
	usage := sys.FS.TierUsage()
	if usage[sys.TierID("hdd0")] != 8192 {
		t.Fatalf("usage = %v", usage)
	}
}

func TestMetaJournalCrashRecovery(t *testing.T) {
	sys := threeTier(t, muxfs.Config{Policy: muxfs.NewLRUPolicy(), MetaJournal: true})
	fs := sys.FS
	f, err := fs.Create("/persist")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("survives"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs.Crash()
	if err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	f2, err := fs.Open("/persist")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got := make([]byte, 8)
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives" {
		t.Fatalf("recovered %q", got)
	}
}

func TestSCMCacheViaConfig(t *testing.T) {
	sys := threeTier(t, muxfs.Config{
		Policy:        muxfs.NewPinnedPolicy(2), // HDD
		SCMCacheBytes: 4 << 20,
	})
	f, err := sys.FS.Create("/c")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.WriteAt(make([]byte, 16384), 0)
	buf := make([]byte, 4096)
	f.ReadAt(buf, 0)
	f.ReadAt(buf, 0)
	stats := sys.FS.CacheStats()
	if stats.Hits == 0 {
		t.Fatalf("cache stats = %+v", stats)
	}
}

func TestErrorsExported(t *testing.T) {
	sys := threeTier(t, muxfs.Config{})
	if _, err := sys.FS.Open("/ghost"); !errors.Is(err, muxfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteTierViaFacade(t *testing.T) {
	// The server half: a single-tier system's native FS behind ServeTier.
	remote, err := muxfs.New(muxfs.Config{
		Tiers:  []muxfs.TierSpec{{Kind: muxfs.SSD, Name: "far-ssd"}},
		Policy: muxfs.NewPinnedPolicy(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go muxfs.ServeTier(l, remote.Tiers[0].FS)

	// The client half: local PM plus the remote tier.
	sys := threeTier(t, muxfs.Config{Policy: muxfs.NewPinnedPolicy(0)})
	remoteID, err := sys.AddRemoteTier("tcp", l.Addr().String(), muxfs.SSD, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sys.FS.Create("/wan")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte{0xE1}, 256<<10)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	moved, err := sys.FS.Migrate("/wan", sys.TierID("pmem0"), remoteID)
	if err != nil {
		t.Fatal(err)
	}
	if moved != int64(len(payload)) {
		t.Fatalf("moved %d", moved)
	}
	// The remote node holds the bytes; reads round-trip over RPC.
	rfi, err := remote.Tiers[0].FS.Stat("/wan")
	if err != nil || rfi.Blocks != int64(len(payload)) {
		t.Fatalf("remote holds %d bytes, err=%v", rfi.Blocks, err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip corrupted data")
	}
	// And back home again.
	if _, err := sys.FS.Migrate("/wan", remoteID, sys.TierID("pmem0")); err != nil {
		t.Fatal(err)
	}
	if rfi, _ := remote.Tiers[0].FS.Stat("/wan"); rfi.Blocks != 0 {
		t.Fatalf("remote still holds %d bytes after promotion", rfi.Blocks)
	}
}

func TestReplicationViaFacade(t *testing.T) {
	sys := threeTier(t, muxfs.Config{Policy: muxfs.NewPinnedPolicy(0)})
	f, err := sys.FS.Create("/dup")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte{7}, 64<<10)
	f.WriteAt(payload, 0)
	if err := sys.FS.SetReplica("/dup", sys.TierID("hdd0")); err != nil {
		t.Fatal(err)
	}
	sys.Tiers[0].Device.InjectFailure(true)
	defer sys.Tiers[0].Device.InjectFailure(false)
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover data wrong")
	}
}

// TestStripeTierViaFacade drives the scale-out capacity tier through the
// public API: 3+1 in-process muxd-style nodes over real loopback RPC,
// attached as one erasure-coded tier, with a node killed mid-flight.
func TestStripeTierViaFacade(t *testing.T) {
	const k, m = 3, 1
	var addrs []string
	var listeners []net.Listener
	for i := 0; i < k+m; i++ {
		node, err := muxfs.New(muxfs.Config{
			Tiers:  []muxfs.TierSpec{{Kind: muxfs.SSD, Name: "n"}},
			Policy: muxfs.NewPinnedPolicy(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go muxfs.ServeTier(l, node.Tiers[0].FS)
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}

	sys := threeTier(t, muxfs.Config{Policy: muxfs.NewPinnedPolicy(0)})
	stripeID, set, err := sys.AddRemoteStripeTier(muxfs.StripeTierSpec{
		Addrs:  addrs,
		Parity: m,
		NetLat: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := sys.FS.Create("/bulk")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte{0xAB}, 512<<10)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FS.Migrate("/bulk", sys.TierID("pmem0"), stripeID); err != nil {
		t.Fatal(err)
	}

	// Reads come back through the stripe.
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped round trip corrupted data")
	}

	// Quarantine one data node: reads must keep working, reconstructed
	// from parity, with zero user-visible errors.
	if err := set.Quarantine(0); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read through Mux: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read corrupted data")
	}
	st := set.Status()
	if st.DegradedReads == 0 {
		t.Fatal("no degraded reads recorded")
	}

	// The telemetry snapshot carries the stripe tier's families.
	found := false
	for _, f := range sys.FS.Telemetry().Families {
		if f.Name == "mux_stripe_degraded_reads_total" {
			found = len(f.Series) == 1 && *f.Series[0].Value == st.DegradedReads
		}
	}
	if !found {
		t.Fatalf("snapshot lacks mux_stripe_degraded_reads_total = %d", st.DegradedReads)
	}
}
