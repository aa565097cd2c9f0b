package muxrpc

import "sync/atomic"

// Pool observability: every counter the pooled clients track internally —
// dials, reconnects, handshake failures, per-slot in-flight depth — is
// exported here so the Mux telemetry snapshot and /metrics can surface
// them. Two views exist:
//
//   - Per-client PoolStats, reached through the RPCPoolStats interface the
//     core snapshot walks (a remote tier is its NSClient; a stripe tier
//     aggregates its node clients).
//   - Package-wide Totals covering dials that never produced a live client
//     (failed dials and handshake failures tear the client down before
//     anything could snapshot it).

// Package totals; see Totals.
var (
	totalDials          atomic.Int64
	totalDialErrors     atomic.Int64
	totalHandshakeFails atomic.Int64
)

// Totals reports package-wide connection-establishment counters across all
// clients, living and dead: successful socket dials, failed dials, and
// post-dial handshake failures.
func Totals() (dials, dialErrors, handshakeFailures int64) {
	return totalDials.Load(), totalDialErrors.Load(), totalHandshakeFails.Load()
}

// PoolStats is one pooled client's connection-level counters.
type PoolStats struct {
	Addr  string `json:"addr"`
	Slots int    `json:"slots"`

	// Dials counts successful socket dials, initial and reconnect;
	// Reconnects counts only lazy redials after a slot was invalidated by
	// a connection-level failure.
	Dials      int64 `json:"dials"`
	Reconnects int64 `json:"reconnects"`
	DialErrors int64 `json:"dial_errors"`

	// Calls counts call attempts issued over the pool (retries included);
	// ConnErrors the attempts that died at the connection level; Retries
	// the idempotent reconnect-and-retry attempts.
	Calls      int64 `json:"calls"`
	ConnErrors int64 `json:"conn_errors"`
	Retries    int64 `json:"retries"`

	// InFlight is the per-slot count of calls currently on the wire.
	InFlight []int64 `json:"in_flight"`
}

// InFlightTotal sums the per-slot depths.
func (s PoolStats) InFlightTotal() int64 {
	var t int64
	for _, v := range s.InFlight {
		t += v
	}
	return t
}
