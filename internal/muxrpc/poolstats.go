package muxrpc

import (
	"strconv"
	"sync/atomic"

	"muxfs/internal/telemetry"
)

// Pool observability: every counter the pooled clients track internally —
// dials, reconnects, handshake failures, per-slot in-flight depth — is
// exported through telemetry collectors. Two views exist:
//
//   - Each NSClient is a telemetry.Collector over its own counters. A Mux
//     collects it as a remote tier; a stripe set collects it as a node.
//   - CollectTotals covers dials that never produced a live client
//     (failed dials and handshake failures tear the client down before
//     anything could scrape it).

// Package-wide connection-establishment counters across all clients,
// living and dead; see CollectTotals.
var (
	totalDials          atomic.Int64
	totalDialErrors     atomic.Int64
	totalHandshakeFails atomic.Int64
)

// CollectTotals emits the package-wide counters as the mux_rpc_* families.
func CollectTotals() []telemetry.FamilySnapshot {
	return []telemetry.FamilySnapshot{
		telemetry.CounterFamily("mux_rpc_dials_total", "Package-wide successful socket dials, living and dead clients.", telemetry.Sample(totalDials.Load())),
		telemetry.CounterFamily("mux_rpc_dial_errors_total", "Package-wide failed dial attempts.", telemetry.Sample(totalDialErrors.Load())),
		telemetry.CounterFamily("mux_rpc_handshake_failures_total", "Package-wide post-dial handshake failures.", telemetry.Sample(totalHandshakeFails.Load())),
	}
}

// Collect emits the client's connection-pool counters as the
// mux_rpc_pool_* families, labeled by server address. Whoever collects
// the client adds what tells two clients of one address apart (a Mux its
// tier, a stripe set its node).
func (c *NSClient) Collect() []telemetry.FamilySnapshot {
	addr := telemetry.Label{Key: "addr", Value: c.addr}
	one := func(v int64) telemetry.SeriesSnapshot { return telemetry.Sample(v, addr) }
	var inflight int64
	slots := make([]telemetry.SeriesSnapshot, len(c.slots))
	for i, s := range c.slots {
		n := s.inflight.Load()
		inflight += n
		slots[i] = telemetry.Sample(n, addr, telemetry.Label{Key: "slot", Value: strconv.Itoa(i)})
	}
	return []telemetry.FamilySnapshot{
		telemetry.CounterFamily("mux_rpc_pool_dials_total", "Successful socket dials per RPC client pool, initial and reconnect.", one(c.dials.Load())),
		telemetry.CounterFamily("mux_rpc_pool_reconnects_total", "Lazy redials after connection failures per RPC client pool.", one(c.reconnects.Load())),
		telemetry.CounterFamily("mux_rpc_pool_dial_errors_total", "Failed dial attempts per RPC client pool.", one(c.dialErrs.Load())),
		telemetry.CounterFamily("mux_rpc_pool_calls_total", "Call attempts issued per RPC client pool, retries included.", one(c.calls.Load())),
		telemetry.CounterFamily("mux_rpc_pool_conn_errors_total", "Call attempts that died at the connection level per RPC client pool.", one(c.connErrs.Load())),
		telemetry.CounterFamily("mux_rpc_pool_retries_total", "Idempotent reconnect-and-retry attempts per RPC client pool.", one(c.retries.Load())),
		telemetry.CounterFamily("mux_rpc_pool_reopens_total", "File handles re-opened by path after a reconnect per RPC client pool.", one(c.reopens.Load())),
		telemetry.CounterFamily("mux_rpc_pool_busy_waits_total", "Backoffs after a server busy rejection per RPC client pool.", one(c.busyWaits.Load())),
		telemetry.GaugeFamily("mux_rpc_pool_inflight", "Calls currently on the wire per RPC client pool.", one(inflight)),
		telemetry.GaugeFamily("mux_rpc_pool_slot_inflight", "Calls currently on the wire per RPC client pool slot.", slots...),
		telemetry.GaugeFamily("mux_rpc_pool_slots", "Connection-pool width per RPC client pool.", one(int64(len(c.slots)))),
	}
}
