package muxfs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"muxfs"
)

// exportedFamilies lists every metric family /metrics exports for a
// System with local, remote and stripe tiers, a namespace front end and
// an autotuner. A family may be added to the exposition; none of these
// may disappear from it.
var exportedFamilies = []string{
	"mux_autotune_accepted_total",
	"mux_autotune_best_score_micro",
	"mux_autotune_converged",
	"mux_autotune_frozen",
	"mux_autotune_holds_total",
	"mux_autotune_idle_total",
	"mux_autotune_last_decision",
	"mux_autotune_last_score_micro",
	"mux_autotune_param_bound_micro",
	"mux_autotune_param_micro",
	"mux_autotune_reverted_total",
	"mux_autotune_rounds_total",
	"mux_blt_files",
	"mux_blt_mapped_bytes",
	"mux_blt_runs",
	"mux_blt_table_bytes",
	"mux_cache_evictions_total",
	"mux_cache_hits_total",
	"mux_cache_misses_total",
	"mux_cache_slots",
	"mux_cache_used_slots",
	"mux_flush_errors_total",
	"mux_flush_latency_ns",
	"mux_flush_records_total",
	"mux_meta_ops_total",
	"mux_migrate_move_errors_total",
	"mux_migrate_move_latency_ns",
	"mux_occ_bytes_moved_total",
	"mux_occ_conflicts_total",
	"mux_occ_lock_fallbacks_total",
	"mux_occ_migrations_total",
	"mux_occ_retries_total",
	"mux_replica_fallback_reads_total",
	"mux_routed_reads_total",
	"mux_rpc_dial_errors_total",
	"mux_rpc_dials_total",
	"mux_rpc_handshake_failures_total",
	"mux_rpc_pool_busy_waits_total",
	"mux_rpc_pool_calls_total",
	"mux_rpc_pool_conn_errors_total",
	"mux_rpc_pool_dial_errors_total",
	"mux_rpc_pool_dials_total",
	"mux_rpc_pool_inflight",
	"mux_rpc_pool_reconnects_total",
	"mux_rpc_pool_reopens_total",
	"mux_rpc_pool_retries_total",
	"mux_rpc_pool_slot_inflight",
	"mux_rpc_pool_slots",
	"mux_server_batch_dispatches_total",
	"mux_server_batch_saved_total",
	"mux_server_batch_subops_total",
	"mux_server_bytes_read_total",
	"mux_server_bytes_written_total",
	"mux_server_cache_entries",
	"mux_server_cache_evictions_total",
	"mux_server_cache_hits_total",
	"mux_server_cache_misses_total",
	"mux_server_cache_neg_hits_total",
	"mux_server_conns",
	"mux_server_conns_accepted_total",
	"mux_server_executing",
	"mux_server_handles_open",
	"mux_server_op_ns",
	"mux_server_queue_depth",
	"mux_server_queue_max",
	"mux_server_rejected_frame_total",
	"mux_server_rejected_invalid_total",
	"mux_server_rejected_queue_total",
	"mux_server_rejected_rate_total",
	"mux_server_requests_total",
	"mux_server_workers",
	"mux_stripe_degraded_reads_total",
	"mux_stripe_node_bytes_total",
	"mux_stripe_node_errors_total",
	"mux_stripe_node_io_ns",
	"mux_stripe_node_ops_total",
	"mux_stripe_node_quarantines_total",
	"mux_stripe_node_stale",
	"mux_stripe_node_state",
	"mux_stripe_nodes",
	"mux_stripe_rebuild_bytes_total",
	"mux_stripe_rebuilds_total",
	"mux_stripe_reconstructed_bytes_total",
	"mux_stripe_shard_bytes",
	"mux_tier_health_faults_total",
	"mux_tier_health_ops_total",
	"mux_tier_health_retries_total",
	"mux_tier_inflight",
	"mux_tier_inflight_width",
	"mux_tier_op_bytes_total",
	"mux_tier_op_errors_total",
	"mux_tier_op_latency_ns",
	"mux_tier_quarantines_total",
	"mux_tier_state",
	"mux_tier_used_bytes",
}

// serveNode starts an in-process tier export over loopback and returns
// its address.
func serveNode(t *testing.T, kind muxfs.DeviceKind) string {
	t.Helper()
	node, err := muxfs.New(muxfs.Config{
		Tiers:  []muxfs.TierSpec{{Kind: kind, Name: "n"}},
		Policy: muxfs.NewPinnedPolicy(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go muxfs.ServeTier(l, node.Tiers[0].FS)
	return l.Addr().String()
}

// TestMetricsExposition scrapes a System that runs every layer which
// exports metrics and checks the exposition's shape: one HELP and one
// TYPE line per family, every family of exportedFamilies present, and a
// JSON form that parses.
func TestMetricsExposition(t *testing.T) {
	sys := threeTier(t, muxfs.Config{Policy: muxfs.NewLRUPolicy()})
	remoteID, err := sys.AddRemoteTier("tcp", serveNode(t, muxfs.SSD), muxfs.SSD, 0)
	if err != nil {
		t.Fatal(err)
	}
	stripeID, set, err := sys.AddRemoteStripeTier(muxfs.StripeTierSpec{
		Addrs:     []string{serveNode(t, muxfs.SSD), serveNode(t, muxfs.SSD), serveNode(t, muxfs.SSD)},
		Parity:    1,
		ShardSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.NewServer(muxfs.ServerOptions{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() {
		l.Close()
		srv.Drain(time.Second)
	}()
	if err := sys.FS.EnableAutotune(muxfs.AutotuneOptions{}); err != nil {
		t.Fatal(err)
	}

	// One request through the front end, one policy round for the tuner.
	c, err := muxfs.DialNamespace("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/front"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := sys.FS.RunPolicyOnce(); err != nil {
		t.Fatal(err)
	}

	// A degraded read through the stripe tier.
	f, err := sys.FS.Create("/cold")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FS.Migrate("/cold", sys.TierID("pmem0"), stripeID); err != nil {
		t.Fatal(err)
	}
	if err := set.Quarantine(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("degraded read: %v (match %v)", err, bytes.Equal(got, payload))
	}

	hs := httptest.NewServer(sys.FS.MetricsHandler())
	defer hs.Close()
	text := httpGet(t, hs.URL+"/metrics")

	help, typ := map[string]int{}, map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 3 && fields[0] == "#" {
			switch fields[1] {
			case "HELP":
				help[fields[2]]++
			case "TYPE":
				typ[fields[2]]++
			}
		}
	}
	for name, n := range typ {
		if n != 1 || help[name] != 1 {
			t.Errorf("family %s: %d HELP and %d TYPE lines, want one each", name, help[name], n)
		}
	}
	for name := range help {
		if typ[name] == 0 {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
	}
	for _, name := range exportedFamilies {
		if typ[name] == 0 {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}

	var snap muxfs.TelemetrySnapshot
	if err := json.Unmarshal([]byte(httpGet(t, hs.URL+"/metrics?format=json")), &snap); err != nil {
		t.Fatalf("/metrics?format=json does not parse: %v", err)
	}
	inJSON := map[string]bool{}
	for _, f := range snap.Families {
		inJSON[f.Name] = true
	}
	for name := range typ {
		if !inJSON[name] {
			t.Errorf("family %s is on /metrics but not in its JSON form", name)
		}
	}

	// Each layer's series carry the labels of the tier that collected
	// them, and count what the test drove: the remote tier's own pool
	// {addr, tier}, a stripe node's pool {addr, node, set, tier}, and the
	// stripe set's counters {set, tier}.
	remote, stripe := strconv.Itoa(remoteID), strconv.Itoa(stripeID)
	wantSeries := []struct {
		family, tier string
		keys         []string
	}{
		{"mux_rpc_pool_dials_total", remote, []string{"addr", "tier"}},
		{"mux_rpc_pool_dials_total", stripe, []string{"addr", "node", "set", "tier"}},
		{"mux_stripe_degraded_reads_total", stripe, []string{"set", "tier"}},
	}
	for _, w := range wantSeries {
		found := false
		for _, f := range snap.Families {
			if f.Name != w.family {
				continue
			}
			for _, s := range f.Series {
				if s.Labels["tier"] != w.tier || len(s.Labels) != len(w.keys) {
					continue
				}
				keysMatch := true
				for _, k := range w.keys {
					if _, ok := s.Labels[k]; !ok {
						keysMatch = false
					}
				}
				if keysMatch && s.Value != nil && *s.Value > 0 {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("no %s series labeled %v with tier=%s and a positive value", w.family, w.keys, w.tier)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(b)
}
