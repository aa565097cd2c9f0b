package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"muxfs/internal/ec"
	"muxfs/internal/muxrpc"
	"muxfs/internal/policy/autotune"
	"muxfs/internal/server"
	"muxfs/internal/telemetry"
)

// Telemetry integration: Mux instruments its natural seams — the tierIO
// dispatch in fanout.go, the migration engine, the health tracker, the SCM
// cache, and the journal group commit — against a telemetry.Registry. The
// design budget is "cheap enough to leave on" (E9 gates the overhead at 5%
// of the E8 metadata-hot workload):
//
//   - Per-tier instruments are pre-resolved into a copy-on-write table
//     (telTab, swapped wholesale in AddTier like tierUsed), so the hot path
//     never takes the registry lock or hashes a label set.
//   - Every record site checks Registry.Enabled() first and skips all clock
//     reads and atomics when off — the disabled cost is one atomic load.
//   - Latency is wall clock, never the simulated clock, so telemetry cannot
//     perturb virtual-time results: E1–E8 stay byte-identical either way.
//
// The trace ring records only slow (> slowOp wall time) or failed
// operations, plus quarantine transitions and slow/failed group commits —
// a bounded flight recorder for "why was that op slow", not a log.

// defaultSlowOp is the wall-time threshold above which an op records a
// trace event. Governed experiment writes sleep ~1.5 ms; real device stalls
// and breaker retry storms exceed this comfortably.
const defaultSlowOp = 5 * time.Millisecond

// tierTel is one tier's pre-resolved instrument set.
type tierTel struct {
	readLat  *telemetry.Histogram
	writeLat *telemetry.Histogram
	syncLat  *telemetry.Histogram

	readBytes  *telemetry.Counter
	writeBytes *telemetry.Counter

	readErrs  *telemetry.Counter
	writeErrs *telemetry.Counter
	syncErrs  *telemetry.Counter

	// Mirror read-router series (route.go): routed reads the tier served as
	// the winning mirror / as the winning primary, and error-path reads the
	// tier's mirror copy rescued (readWithReplicaFallback) — kept separate
	// so the mirror-hit ratio measures routing, not failures.
	routedMirror  *telemetry.Counter
	routedPrimary *telemetry.Counter
	fallbackReads *telemetry.Counter
}

// metaOp enumerates the namespace/metadata operations counted per kind.
type metaOp int

const (
	mopCreate metaOp = iota
	mopOpen
	mopStat
	mopRemove
	mopRename
	mopMkdir
	mopReaddir
	mopSetattr
	mopTruncate
	mopPunch
	mopSync
	mopCount
)

var metaOpNames = [mopCount]string{
	"create", "open", "stat", "remove", "rename", "mkdir",
	"readdir", "setattr", "truncate", "punch", "sync",
}

// newTierTel resolves the per-tier instrument handles.
func (m *Mux) newTierTel(id int, dev string) *tierTel {
	ls := func(op string) []telemetry.Label {
		return []telemetry.Label{
			{Key: "tier", Value: strconv.Itoa(id)},
			{Key: "dev", Value: dev},
			{Key: "op", Value: op},
		}
	}
	return &tierTel{
		readLat:    m.tel.Histogram("mux_tier_op_latency_ns", "Per-tier downward op wall latency in nanoseconds.", ls("read")...),
		writeLat:   m.tel.Histogram("mux_tier_op_latency_ns", "Per-tier downward op wall latency in nanoseconds.", ls("write")...),
		syncLat:    m.tel.Histogram("mux_tier_op_latency_ns", "Per-tier downward op wall latency in nanoseconds.", ls("sync")...),
		readBytes:  m.tel.Counter("mux_tier_op_bytes_total", "Bytes moved by per-tier downward ops.", ls("read")...),
		writeBytes: m.tel.Counter("mux_tier_op_bytes_total", "Bytes moved by per-tier downward ops.", ls("write")...),
		readErrs:   m.tel.Counter("mux_tier_op_errors_total", "Per-tier downward ops that returned an error.", ls("read")...),
		writeErrs:  m.tel.Counter("mux_tier_op_errors_total", "Per-tier downward ops that returned an error.", ls("write")...),
		syncErrs:   m.tel.Counter("mux_tier_op_errors_total", "Per-tier downward ops that returned an error.", ls("sync")...),

		routedMirror:  m.tel.Counter("mux_routed_reads_total", "Replicated-file reads dispatched by the read router, by winning copy.", lsCopy(id, dev, "mirror")...),
		routedPrimary: m.tel.Counter("mux_routed_reads_total", "Replicated-file reads dispatched by the read router, by winning copy.", lsCopy(id, dev, "primary")...),
		fallbackReads: m.tel.Counter("mux_replica_fallback_reads_total", "Segment reads the replica served after a primary error.", lsCopy(id, dev, "")[:2]...),
	}
}

// lsCopy builds the read-router label set {tier, dev, copy}; slicing off
// the last label gives the plain {tier, dev} pair.
func lsCopy(id int, dev, copy string) []telemetry.Label {
	return []telemetry.Label{
		{Key: "tier", Value: strconv.Itoa(id)},
		{Key: "dev", Value: dev},
		{Key: "copy", Value: copy},
	}
}

// telRouted books one routing decision: the tier that won the score, and
// whether it was serving as the mirror copy.
func (m *Mux) telRouted(tier int, mirror bool) {
	if !m.tel.Enabled() {
		return
	}
	tt := m.telTier(tier)
	if tt == nil {
		return
	}
	if mirror {
		tt.routedMirror.Add(1)
	} else {
		tt.routedPrimary.Add(1)
	}
}

// telFallback books one successful error-path replica read on the mirror's
// tier.
func (m *Mux) telFallback(tier int) {
	if !m.tel.Enabled() {
		return
	}
	if tt := m.telTier(tier); tt != nil {
		tt.fallbackReads.Add(1)
	}
}

// telTier returns the instrument set for tier id (nil for unknown ids).
func (m *Mux) telTier(id int) *tierTel {
	tab := *m.telTab.Load()
	if id < 0 || id >= len(tab) {
		return nil
	}
	return tab[id]
}

// telStart opens a latency measurement: the zero time when telemetry is
// off, so record sites can gate everything on one atomic load.
func (m *Mux) telStart() time.Time {
	if !m.tel.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// telIO books one per-tier data op: latency, bytes, error count, and a
// trace event when the op failed or ran slow. t0 is the telStart result —
// zero means telemetry was off when the op began and nothing records.
func (m *Mux) telIO(op string, tier int, path string, bytes int64, t0 time.Time, err error) {
	if t0.IsZero() {
		return
	}
	tt := m.telTier(tier)
	if tt == nil {
		return
	}
	dur := time.Since(t0)
	var lat *telemetry.Histogram
	var bytesCtr, errCtr *telemetry.Counter
	switch op {
	case "read":
		lat, bytesCtr, errCtr = tt.readLat, tt.readBytes, tt.readErrs
	case "write":
		lat, bytesCtr, errCtr = tt.writeLat, tt.writeBytes, tt.writeErrs
	default: // "sync"
		lat, errCtr = tt.syncLat, tt.syncErrs
	}
	lat.Record(int64(dur))
	if bytesCtr != nil && bytes > 0 {
		bytesCtr.Add(bytes)
	}
	if err != nil {
		errCtr.Add(1)
	}
	if err != nil || dur >= m.telSlow {
		ev := telemetry.TraceEvent{Op: op, Tier: tier, Path: path, Dur: dur}
		if err != nil {
			ev.Err = err.Error()
		}
		if bytes > 0 {
			ev.Note = fmt.Sprintf("%d bytes", bytes)
		}
		m.tel.Trace.Add(ev)
	}
}

// telMigrate books one migration move: wall latency, error count, and a
// trace event when the move failed or ran slow.
func (m *Mux) telMigrate(path string, src, dst int, moved int64, t0 time.Time, err error) {
	if t0.IsZero() {
		return
	}
	dur := time.Since(t0)
	m.telMigLat.Record(int64(dur))
	if err != nil {
		m.telMigErrs.Add(1)
	}
	if err != nil || dur >= m.telSlow {
		ev := telemetry.TraceEvent{
			Op: "migrate", Tier: dst, Path: path, Dur: dur,
			Note: fmt.Sprintf("tier %d -> %d, %d bytes", src, dst, moved),
		}
		if err != nil {
			ev.Err = err.Error()
		}
		m.tel.Trace.Add(ev)
	}
}

// telFlush books one journal group commit: wall latency, records committed,
// error count, and a trace event when the flush failed or ran slow.
func (m *Mux) telFlush(records int, t0 time.Time, err error) {
	if t0.IsZero() {
		return
	}
	dur := time.Since(t0)
	m.telFlushLat.Record(int64(dur))
	m.telFlushRecs.Add(int64(records))
	if err != nil {
		m.telFlushErrs.Add(1)
	}
	if err != nil || dur >= m.telSlow {
		ev := telemetry.TraceEvent{
			Op: "flush", Tier: -1, Dur: dur,
			Note: fmt.Sprintf("%d records", records),
		}
		if err != nil {
			ev.Err = err.Error()
		}
		m.tel.Trace.Add(ev)
	}
}

// telMetaOp counts one namespace/metadata operation.
func (m *Mux) telMetaOp(op metaOp) {
	if !m.tel.Enabled() {
		return
	}
	m.telMeta[op].Add(1)
}

// telTraceQuarantine records a breaker transition.
func (m *Mux) telTraceQuarantine(tier int, opened bool, lastFault string) {
	if !m.tel.Enabled() {
		return
	}
	note := "breaker closed (tier recovered)"
	if opened {
		note = "breaker opened"
	}
	m.tel.Trace.Add(telemetry.TraceEvent{Op: "quarantine", Tier: tier, Err: lastFault, Note: note})
}

// --- public surface -------------------------------------------------------

// TelemetryRegistry exposes the raw registry (HTTP export, tests).
func (m *Mux) TelemetryRegistry() *telemetry.Registry { return m.tel }

// TelemetryEnabled reports whether recording is on.
func (m *Mux) TelemetryEnabled() bool { return m.tel.Enabled() }

// SetTelemetryEnabled toggles recording at runtime.
func (m *Mux) SetTelemetryEnabled(on bool) { m.tel.SetEnabled(on) }

// ResetTelemetry zeroes every instrument and clears the trace ring.
func (m *Mux) ResetTelemetry() { m.tel.Reset() }

// BLTInfo is the Block Lookup Table footprint as one struct (the four
// scattered BLTStats return values, unified for the telemetry snapshot).
type BLTInfo struct {
	Files       int   `json:"files"`
	Runs        int   `json:"runs"`
	MappedBytes int64 `json:"mapped_bytes"`
	TableBytes  int64 `json:"table_bytes"`
}

// BLTInfo reports the aggregate BLT footprint.
func (m *Mux) BLTInfo() BLTInfo {
	files, runs, mapped, table := m.BLTStats()
	return BLTInfo{Files: files, Runs: runs, MappedBytes: mapped, TableBytes: table}
}

// OpTelemetry summarizes one per-tier op series: count, bytes, errors, and
// the latency distribution (wall-clock quantiles).
type OpTelemetry struct {
	Tier     int           `json:"tier"` // -1 for non-tier ops (flush, migrate)
	TierName string        `json:"tier_name,omitempty"`
	Op       string        `json:"op"`
	Count    int64         `json:"count"`
	Bytes    int64         `json:"bytes,omitempty"`
	Errors   int64         `json:"errors"`
	P50      time.Duration `json:"p50_ns"`
	P95      time.Duration `json:"p95_ns"`
	P99      time.Duration `json:"p99_ns"`
	Max      time.Duration `json:"max_ns"`
	Mean     time.Duration `json:"mean_ns"`
}

func opTelemetryFrom(tier int, name, op string, h telemetry.HistSnapshot, bytes, errs int64) OpTelemetry {
	return OpTelemetry{
		Tier: tier, TierName: name, Op: op,
		Count: h.Count, Bytes: bytes, Errors: errs,
		P50:  time.Duration(h.Quantile(0.50)),
		P95:  time.Duration(h.Quantile(0.95)),
		P99:  time.Duration(h.Quantile(0.99)),
		Max:  time.Duration(h.Max),
		Mean: time.Duration(h.Mean()),
	}
}

// TelemetrySnapshot is the unified observability view: it subsumes the
// scattered CacheStats/OCCStats/BLTStats/MigrationStats/TierHealth surfaces
// and adds the per-tier latency distributions and the trace ring.
type TelemetrySnapshot struct {
	Enabled bool `json:"enabled"`

	// Ops carries one entry per tier+op data-path series (read/write/sync),
	// plus tier -1 entries for the group-commit flush and migration moves.
	Ops []OpTelemetry `json:"ops"`

	// MetaOps counts namespace/metadata operations by kind.
	MetaOps map[string]int64 `json:"meta_ops"`

	// FlushRecords is the total journal records committed by group commits.
	FlushRecords int64 `json:"flush_records"`

	Cache         CacheStats       `json:"cache"`
	OCC           OCCStats         `json:"occ"`
	BLT           BLTInfo          `json:"blt"`
	LastMigration MigrationStats   `json:"last_migration"`
	Tiers         []TierHealthInfo `json:"tiers"`

	// Routing summarizes the mirror read router (route.go): per-tier routed
	// and fallback counters, the mirror-hit ratio, and the live in-flight
	// depth of every tier's data-path gate.
	Routing RoutingTelemetry `json:"routing"`

	// Stripes reports composite erasure-coded tiers (internal/ec): per-node
	// breaker state, staleness, shard I/O counters, and set-wide
	// degraded-read/rebuild totals. Empty unless a stripe tier is
	// registered.
	Stripes []ec.SetStatus `json:"stripes,omitempty"`

	// Pools reports connection-pool counters for every RPC-backed tier
	// (remote tiers are muxrpc.NSClients; stripe tiers aggregate their
	// node clients). PoolTotals covers connection attempts that never produced
	// a live client — failed dials and handshake failures tear the client
	// down before anything could snapshot it.
	Pools      []muxrpc.PoolStats `json:"pools,omitempty"`
	PoolTotals PoolTotals         `json:"pool_totals"`

	// Server is the network front end's counter snapshot, present when a
	// namespace server registered itself via SetServerStats (muxd -serve).
	Server *server.Stats `json:"server,omitempty"`

	// Tenants is the per-tenant attribution section (tenant.go): op and
	// byte counters, virtual-time latency quantiles, and per-tier
	// occupancy. Empty unless tenants are registered.
	Tenants []TenantTelemetry `json:"tenants,omitempty"`

	// Autotune is the policy autotuner's status (rounds, accept/revert
	// counters, convergence, live params). Nil unless EnableAutotune ran.
	Autotune *autotune.Status `json:"autotune,omitempty"`

	Traces []telemetry.TraceEvent `json:"traces"`
}

// PoolTotals is the package-wide muxrpc connection-establishment view.
type PoolTotals struct {
	Dials             int64 `json:"dials"`
	DialErrors        int64 `json:"dial_errors"`
	HandshakeFailures int64 `json:"handshake_failures"`
}

// rpcPoolStatser is implemented by tier backends that expose pooled-RPC
// counters (muxrpc.NSClient, ec.StripeSet).
type rpcPoolStatser interface {
	RPCPoolStats() []muxrpc.PoolStats
}

// SetServerStats registers the network front end's stats provider so the
// telemetry snapshot and /metrics include the server section. Pass nil to
// unregister.
func (m *Mux) SetServerStats(fn func() server.Stats) {
	if fn == nil {
		m.serverStats.Store(nil)
		return
	}
	m.serverStats.Store(&fn)
}

// TierRouteTelemetry is one tier's read-router view.
type TierRouteTelemetry struct {
	Tier     int    `json:"tier"`
	TierName string `json:"tier_name"`

	RoutedMirror  int64 `json:"routed_mirror"`  // routed reads this tier served as the mirror
	RoutedPrimary int64 `json:"routed_primary"` // routed reads this tier served as the primary
	FallbackReads int64 `json:"fallback_reads"` // error-path reads this tier's mirror copy served

	InFlight int `json:"in_flight"` // data-path gate slots currently held
	Width    int `json:"width"`     // gate width (admission bound)
}

// RoutingTelemetry aggregates the read router across tiers.
type RoutingTelemetry struct {
	Enabled bool `json:"enabled"` // MirrorRouting() at snapshot time

	RoutedMirror  int64 `json:"routed_mirror"`
	RoutedPrimary int64 `json:"routed_primary"`
	FallbackReads int64 `json:"fallback_reads"`
	// MirrorHitRatio is RoutedMirror / (RoutedMirror + RoutedPrimary) — the
	// fraction of routing decisions the mirror won (0 when no decisions).
	MirrorHitRatio float64 `json:"mirror_hit_ratio"`

	Tiers []TierRouteTelemetry `json:"tiers"`
}

// routingTelemetry assembles the router section of the snapshot.
func (m *Mux) routingTelemetry() RoutingTelemetry {
	rt := RoutingTelemetry{Enabled: m.MirrorRouting()}
	for _, t := range m.Tiers() {
		tt := m.telTier(t.ID)
		if tt == nil {
			continue
		}
		row := TierRouteTelemetry{
			Tier:          t.ID,
			TierName:      t.Prof.Name,
			RoutedMirror:  tt.routedMirror.Value(),
			RoutedPrimary: tt.routedPrimary.Value(),
			FallbackReads: tt.fallbackReads.Value(),
			InFlight:      m.ioDepth(t.ID),
			Width:         m.ioWidth(t.ID),
		}
		rt.RoutedMirror += row.RoutedMirror
		rt.RoutedPrimary += row.RoutedPrimary
		rt.FallbackReads += row.FallbackReads
		rt.Tiers = append(rt.Tiers, row)
	}
	sort.Slice(rt.Tiers, func(i, j int) bool { return rt.Tiers[i].Tier < rt.Tiers[j].Tier })
	if total := rt.RoutedMirror + rt.RoutedPrimary; total > 0 {
		rt.MirrorHitRatio = float64(rt.RoutedMirror) / float64(total)
	}
	return rt
}

// Telemetry returns the unified snapshot.
func (m *Mux) Telemetry() TelemetrySnapshot {
	snap := TelemetrySnapshot{
		Enabled:       m.tel.Enabled(),
		MetaOps:       map[string]int64{},
		Cache:         m.CacheStats(),
		OCC:           m.OCC(),
		BLT:           m.BLTInfo(),
		LastMigration: m.LastMigration(),
		Tiers:         m.TierHealth(),
		Routing:       m.routingTelemetry(),
		Tenants:       m.TenantTelemetrySnapshot(),
		Traces:        m.tel.Trace.Snapshot(),
		FlushRecords:  m.telFlushRecs.Value(),
	}
	if tn := m.tunerP.Load(); tn != nil {
		st := tn.Status()
		snap.Autotune = &st
	}
	for op, c := range m.telMeta {
		snap.MetaOps[metaOpNames[op]] = c.Value()
	}
	dials, dialErrs, hsFails := muxrpc.Totals()
	snap.PoolTotals = PoolTotals{Dials: dials, DialErrors: dialErrs, HandshakeFailures: hsFails}
	if fn := m.serverStats.Load(); fn != nil {
		st := (*fn)()
		snap.Server = &st
	}
	for _, t := range m.Tiers() {
		if ss, ok := t.FS.(StripeStatuser); ok {
			snap.Stripes = append(snap.Stripes, ss.Status())
		}
		if ps, ok := t.FS.(rpcPoolStatser); ok {
			snap.Pools = append(snap.Pools, ps.RPCPoolStats()...)
		}
		tt := m.telTier(t.ID)
		if tt == nil {
			continue
		}
		snap.Ops = append(snap.Ops,
			opTelemetryFrom(t.ID, t.Prof.Name, "read", tt.readLat.Snapshot(), tt.readBytes.Value(), tt.readErrs.Value()),
			opTelemetryFrom(t.ID, t.Prof.Name, "write", tt.writeLat.Snapshot(), tt.writeBytes.Value(), tt.writeErrs.Value()),
			opTelemetryFrom(t.ID, t.Prof.Name, "sync", tt.syncLat.Snapshot(), 0, tt.syncErrs.Value()),
		)
	}
	sort.SliceStable(snap.Ops, func(i, j int) bool {
		if snap.Ops[i].Tier != snap.Ops[j].Tier {
			return snap.Ops[i].Tier < snap.Ops[j].Tier
		}
		return snap.Ops[i].Op < snap.Ops[j].Op
	})
	snap.Ops = append(snap.Ops,
		opTelemetryFrom(-1, "", "flush", m.telFlushLat.Snapshot(), 0, m.telFlushErrs.Value()),
		opTelemetryFrom(-1, "", "migrate", m.telMigLat.Snapshot(), 0, m.telMigErrs.Value()),
	)
	return snap
}

// promFamilies synthesizes export families for the stats surfaces that live
// outside the registry (cache, OCC, BLT, health, usage), so /metrics is the
// complete picture, not just the hot-path instruments.
func (m *Mux) promFamilies() []telemetry.FamilySnapshot {
	counterFam := func(name, help string, vals ...telemetry.SeriesSnapshot) telemetry.FamilySnapshot {
		return telemetry.FamilySnapshot{Name: name, Help: help, Kind: "counter", Series: vals}
	}
	gaugeFam := func(name, help string, vals ...telemetry.SeriesSnapshot) telemetry.FamilySnapshot {
		return telemetry.FamilySnapshot{Name: name, Help: help, Kind: "gauge", Series: vals}
	}
	one := func(v int64, labels ...telemetry.Label) telemetry.SeriesSnapshot {
		return telemetry.SeriesSnapshot{Labels: labels, Value: v}
	}

	cache := m.CacheStats()
	occ := m.OCC()
	blt := m.BLTInfo()

	fams := []telemetry.FamilySnapshot{
		counterFam("mux_cache_hits_total", "SCM cache hits.", one(cache.Hits)),
		counterFam("mux_cache_misses_total", "SCM cache misses.", one(cache.Misses)),
		counterFam("mux_cache_evictions_total", "SCM cache evictions.", one(cache.Evictions)),
		gaugeFam("mux_cache_slots", "SCM cache slot capacity.", one(cache.Slots)),
		gaugeFam("mux_cache_used_slots", "SCM cache slots in use.", one(int64(cache.UsedSlots))),
		counterFam("mux_occ_migrations_total", "Completed migration calls.", one(occ.Migrations)),
		counterFam("mux_occ_bytes_moved_total", "Bytes committed by migrations.", one(occ.BytesMoved)),
		counterFam("mux_occ_conflicts_total", "Migration rounds that saw concurrent writes.", one(occ.Conflicts)),
		counterFam("mux_occ_retries_total", "Migration re-copy rounds.", one(occ.Retries)),
		counterFam("mux_occ_lock_fallbacks_total", "Migrations that fell back to lock-based copy.", one(occ.LockFallbacks)),
		gaugeFam("mux_blt_files", "Live files tracked by the BLT.", one(int64(blt.Files))),
		gaugeFam("mux_blt_runs", "Total mapped BLT runs.", one(int64(blt.Runs))),
		gaugeFam("mux_blt_mapped_bytes", "Bytes mapped by the BLT.", one(blt.MappedBytes)),
		gaugeFam("mux_blt_table_bytes", "Approximate in-memory BLT size.", one(blt.TableBytes)),
	}

	var used, healthOps, healthFaults, healthRetries, healthQuar, healthState []telemetry.SeriesSnapshot
	var inflight, inflightW []telemetry.SeriesSnapshot
	for _, t := range m.Tiers() {
		labels := []telemetry.Label{
			{Key: "tier", Value: strconv.Itoa(t.ID)},
			{Key: "dev", Value: t.Prof.Name},
		}
		used = append(used, one(m.used(t.ID).Load(), labels...))
		inflight = append(inflight, one(int64(m.ioDepth(t.ID)), labels...))
		inflightW = append(inflightW, one(int64(m.ioWidth(t.ID)), labels...))
		if h := m.healthOf(t.ID); h != nil {
			info := h.snapshot(t.ID, t.Prof.Name)
			healthOps = append(healthOps, one(info.Ops, labels...))
			healthFaults = append(healthFaults, one(info.Faults, labels...))
			healthRetries = append(healthRetries, one(info.Retries, labels...))
			healthQuar = append(healthQuar, one(info.Quarantines, labels...))
			var st int64
			switch info.State {
			case "quarantined":
				st = 1
			case "probing":
				st = 2
			}
			healthState = append(healthState, one(st, labels...))
		}
	}
	fams = append(fams,
		gaugeFam("mux_tier_used_bytes", "Mux-accounted bytes per tier.", used...),
		counterFam("mux_tier_health_ops_total", "Downward data ops attempted per tier.", healthOps...),
		counterFam("mux_tier_health_faults_total", "Downward op attempts failed by device faults.", healthFaults...),
		counterFam("mux_tier_health_retries_total", "Transient-fault retries per tier.", healthRetries...),
		counterFam("mux_tier_quarantines_total", "Times a tier's circuit breaker opened.", healthQuar...),
		gaugeFam("mux_tier_state", "Breaker state per tier: 0 healthy, 1 quarantined, 2 probing.", healthState...),
		gaugeFam("mux_tier_inflight", "Data-path ops currently holding a slot on the tier's data-path gate.", inflight...),
		gaugeFam("mux_tier_inflight_width", "Data-path gate width per tier.", inflightW...),
	)

	// Per-tenant attribution (tenant.go). Latency gauges are VIRTUAL
	// nanoseconds (simclock), not wall clock — deterministic under the
	// experiment harness, which is what the E14 isolation gates scrape.
	if tens := m.TenantTelemetrySnapshot(); len(tens) > 0 {
		var tReads, tWrites, tRB, tWB, tErrs, tFast, tRP99, tWP99 []telemetry.SeriesSnapshot
		for _, tn := range tens {
			labels := []telemetry.Label{{Key: "tenant", Value: tn.Name}}
			tReads = append(tReads, one(tn.Reads, labels...))
			tWrites = append(tWrites, one(tn.Writes, labels...))
			tRB = append(tRB, one(tn.ReadBytes, labels...))
			tWB = append(tWB, one(tn.WriteBytes, labels...))
			tErrs = append(tErrs, one(tn.Errors, labels...))
			tFast = append(tFast, one(tn.FastBytes, labels...))
			tRP99 = append(tRP99, one(int64(tn.ReadP99), labels...))
			tWP99 = append(tWP99, one(int64(tn.WriteP99), labels...))
		}
		fams = append(fams,
			counterFam("mux_tenant_reads_total", "Upward reads attributed per tenant.", tReads...),
			counterFam("mux_tenant_writes_total", "Upward writes attributed per tenant.", tWrites...),
			counterFam("mux_tenant_read_bytes_total", "Bytes served to each tenant's reads.", tRB...),
			counterFam("mux_tenant_write_bytes_total", "Bytes accepted from each tenant's writes.", tWB...),
			counterFam("mux_tenant_errors_total", "Failed attributed ops per tenant.", tErrs...),
			gaugeFam("mux_tenant_fast_tier_bytes", "Tenant bytes resident on the fastest tier (as of the last policy round).", tFast...),
			gaugeFam("mux_tenant_read_p99_virtual_ns", "Per-tenant p99 read latency in VIRTUAL (simclock) nanoseconds.", tRP99...),
			gaugeFam("mux_tenant_write_p99_virtual_ns", "Per-tenant p99 write latency in VIRTUAL (simclock) nanoseconds.", tWP99...),
		)
	}

	// Policy autotuner (internal/policy/autotune). Scores and param values
	// are fixed-point micro-units (value × 1e6) so the float objective and
	// fractional knobs survive the integer series type.
	if tn := m.tunerP.Load(); tn != nil {
		st := tn.Status()
		var conv int64
		if st.Converged {
			conv = 1
		}
		var params []telemetry.SeriesSnapshot
		for _, p := range st.Params {
			params = append(params, one(int64(p.Value*1e6),
				telemetry.Label{Key: "param", Value: p.Name},
				telemetry.Label{Key: "kind", Value: p.Kind.String()}))
		}
		fams = append(fams,
			counterFam("mux_autotune_rounds_total", "Controller rounds (Policy Runner samples fed to the autotuner).", one(st.Rounds)),
			counterFam("mux_autotune_accepted_total", "Probes kept: the objective improved past the hysteresis margin.", one(st.Accepted)),
			counterFam("mux_autotune_reverted_total", "Probes rolled back: no improvement.", one(st.Reverted)),
			counterFam("mux_autotune_holds_total", "Rounds held after convergence.", one(st.Holds)),
			counterFam("mux_autotune_idle_total", "Rounds skipped for lack of traffic.", one(st.Idle)),
			gaugeFam("mux_autotune_converged", "1 when the hill climb has settled.", one(conv)),
			gaugeFam("mux_autotune_best_score_micro", "Best accepted objective score × 1e6.", one(int64(st.BestScore*1e6))),
			gaugeFam("mux_autotune_last_score_micro", "Most recent interval's objective score × 1e6.", one(int64(st.LastScore*1e6))),
			gaugeFam("mux_autotune_param_micro", "Live tunable-param values × 1e6, by param name.", params...),
		)
	}

	// RPC connection pools: per-client series keyed by remote address plus
	// the package-wide establishment totals (which include clients that
	// died before they could be snapshotted).
	var pDials, pReconn, pDialErrs, pCalls, pConnErrs, pRetries, pInflight, pSlots []telemetry.SeriesSnapshot
	for i, ps := range m.poolStats() {
		labels := []telemetry.Label{
			{Key: "addr", Value: ps.Addr},
			{Key: "pool", Value: strconv.Itoa(i)},
		}
		pDials = append(pDials, one(ps.Dials, labels...))
		pReconn = append(pReconn, one(ps.Reconnects, labels...))
		pDialErrs = append(pDialErrs, one(ps.DialErrors, labels...))
		pCalls = append(pCalls, one(ps.Calls, labels...))
		pConnErrs = append(pConnErrs, one(ps.ConnErrors, labels...))
		pRetries = append(pRetries, one(ps.Retries, labels...))
		pInflight = append(pInflight, one(ps.InFlightTotal(), labels...))
		pSlots = append(pSlots, one(int64(ps.Slots), labels...))
	}
	dials, dialErrs, hsFails := muxrpc.Totals()
	fams = append(fams,
		counterFam("mux_rpc_pool_dials_total", "Successful socket dials per RPC client pool.", pDials...),
		counterFam("mux_rpc_pool_reconnects_total", "Lazy redials after connection failures per RPC client pool.", pReconn...),
		counterFam("mux_rpc_pool_dial_errors_total", "Failed dial attempts per RPC client pool.", pDialErrs...),
		counterFam("mux_rpc_pool_calls_total", "Call attempts issued per RPC client pool.", pCalls...),
		counterFam("mux_rpc_pool_conn_errors_total", "Call attempts that died at the connection level per RPC client pool.", pConnErrs...),
		counterFam("mux_rpc_pool_retries_total", "Idempotent reconnect-and-retry attempts per RPC client pool.", pRetries...),
		gaugeFam("mux_rpc_pool_inflight", "Calls currently on the wire per RPC client pool.", pInflight...),
		gaugeFam("mux_rpc_pool_slots", "Connection-pool width per RPC client pool.", pSlots...),
		counterFam("mux_rpc_dials_total", "Package-wide successful socket dials, living and dead clients.", one(dials)),
		counterFam("mux_rpc_dial_errors_total", "Package-wide failed dial attempts.", one(dialErrs)),
		counterFam("mux_rpc_handshake_failures_total", "Package-wide post-dial handshake failures.", one(hsFails)),
	)

	// Network front end (muxd -serve): counters from the namespace server,
	// when one registered via SetServerStats.
	if fn := m.serverStats.Load(); fn != nil {
		st := (*fn)()
		fams = append(fams,
			gaugeFam("mux_server_conns", "Open namespace-server connections.", one(int64(st.Conns))),
			counterFam("mux_server_conns_accepted_total", "Namespace-server connections accepted.", one(st.ConnsAccepted)),
			gaugeFam("mux_server_workers", "Namespace-server worker-pool width.", one(int64(st.Workers))),
			gaugeFam("mux_server_queue_depth", "Admitted requests waiting for a worker.", one(int64(st.QueueDepth))),
			gaugeFam("mux_server_queue_max", "Admission high watermark.", one(int64(st.MaxQueue))),
			gaugeFam("mux_server_executing", "Requests currently inside workers.", one(st.Executing)),
			counterFam("mux_server_requests_total", "Namespace-server requests received.", one(st.Requests)),
			counterFam("mux_server_rejected_queue_total", "Requests rejected busy: queue past high watermark.", one(st.RejectedQueue)),
			counterFam("mux_server_rejected_rate_total", "Requests rejected busy: client over its rate budget.", one(st.RejectedRate)),
			counterFam("mux_server_rejected_invalid_total", "Requests rejected at admission: malformed or over the payload cap.", one(st.RejectedInvalid)),
			counterFam("mux_server_rejected_frame_total", "Connections killed for an over-cap wire frame.", one(st.RejectedFrame)),
			counterFam("mux_server_bytes_read_total", "Bytes served by namespace-server reads.", one(st.BytesRead)),
			counterFam("mux_server_bytes_written_total", "Bytes accepted by namespace-server writes.", one(st.BytesWritten)),
			counterFam("mux_server_cache_hits_total", "Attr/readdir cache hits (negative hits included).", one(st.CacheHits)),
			counterFam("mux_server_cache_misses_total", "Attr/readdir cache misses.", one(st.CacheMisses)),
			counterFam("mux_server_cache_neg_hits_total", "Attr/readdir negative-entry hits.", one(st.CacheNegHits)),
			counterFam("mux_server_cache_evictions_total", "Attr/readdir cache LRU evictions.", one(st.CacheEvicts)),
			gaugeFam("mux_server_cache_entries", "Live attr/readdir cache entries.", one(st.CacheEntries)),
			counterFam("mux_server_batch_subops_total", "Batched sub-operations received.", one(st.BatchSubOps)),
			counterFam("mux_server_batch_dispatches_total", "Downward dispatches issued for batched sub-ops.", one(st.BatchDispatches)),
			counterFam("mux_server_batch_saved_total", "Downward dispatches avoided by coalescing.", one(st.BatchSaved)),
			gaugeFam("mux_server_handles_open", "Open handles across all namespace-server connections.", one(st.HandlesOpen)),
		)
	}
	return fams
}

// poolStats collects the pooled-RPC counters of every tier backend that
// exposes them.
func (m *Mux) poolStats() []muxrpc.PoolStats {
	var out []muxrpc.PoolStats
	for _, t := range m.Tiers() {
		if ps, ok := t.FS.(rpcPoolStatser); ok {
			out = append(out, ps.RPCPoolStats()...)
		}
	}
	return out
}
