package core

import (
	"encoding/json"
	"io"
	"net/http"

	"muxfs/internal/telemetry"
)

// HTTP export of the telemetry surface. cmd/muxd mounts MetricsHandler on
// its -metrics listener; anything that can scrape Prometheus text or GET
// JSON gets the full picture — registry instruments plus every collected
// family: Mux's own (cache, OCC, BLT, usage, health, tenants) and those of
// the layers built on it (stripe tiers, RPC pools, the namespace server,
// the autotuner).

// WriteMetrics writes the complete Prometheus text exposition.
func (m *Mux) WriteMetrics(w io.Writer) error {
	return telemetry.WritePrometheus(w, m.tel)
}

// MetricsHandler serves the telemetry surface over HTTP:
//
//	GET /metrics              Prometheus text format (version 0.0.4)
//	GET /metrics?format=json  the unified TelemetrySnapshot as JSON
//	GET /debug/trace          the trace ring as JSON, oldest first
func (m *Mux) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(m.Telemetry())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.tel.Trace.Snapshot())
	})
	return mux
}
