package core

// StripeStatuser is implemented by composite tiers that stripe their
// bytes over several nodes with parity (internal/ec.StripeSet). Mux
// treats such a tier like any other on the data path; it only flags it
// to policies (TierInfo.Stripe). Its health and counters reach /metrics
// through the tier's own telemetry.Collector.
type StripeStatuser interface {
	Geometry() (data, parity int)
}
