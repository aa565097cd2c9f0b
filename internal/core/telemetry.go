package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"muxfs/internal/telemetry"
)

// Telemetry integration: Mux instruments its natural seams — the tierIO
// dispatch in fanout.go, the migration engine, the health tracker, the SCM
// cache, and the journal group commit — against a telemetry.Registry. The
// design budget is "cheap enough to leave on" (E9 gates the overhead at 5%
// of the E8 metadata-hot workload):
//
//   - Per-tier instruments are pre-resolved into the tier's record
//     (Tier.tel) when AddTier builds it, so the hot path never takes the
//     registry lock or hashes a label set.
//   - Every record site checks Registry.Enabled() first and skips all clock
//     reads and atomics when off — the disabled cost is one atomic load.
//   - Latency is wall clock, never the simulated clock, so telemetry cannot
//     perturb virtual-time results: E1–E8 stay byte-identical either way.
//
// The trace ring records only slow (> slowOp wall time) or failed
// operations, plus quarantine transitions and slow/failed group commits —
// a bounded flight recorder for "why was that op slow", not a log.

// slowOp is the wall-time threshold above which a data op, migration move
// or group commit records a trace event. Governed experiment writes sleep
// ~1.5 ms; real device stalls and breaker retry storms exceed this
// comfortably.
const slowOp = 5 * time.Millisecond

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
func (m *Mux) newTierTel(id int, dev string) tierTel {
	ls := func(op string) []telemetry.Label {
		return []telemetry.Label{
			{Key: "tier", Value: strconv.Itoa(id)},
			{Key: "dev", Value: dev},
			{Key: "op", Value: op},
		}
	}
	return tierTel{
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
func (m *Mux) telRouted(t *Tier, mirror bool) {
	if !m.tel.Enabled() {
		return
	}
	if mirror {
		t.tel.routedMirror.Add(1)
	} else {
		t.tel.routedPrimary.Add(1)
	}
}

// telFallback books one successful error-path replica read on the mirror's
// tier.
func (m *Mux) telFallback(t *Tier) {
	if m.tel.Enabled() {
		t.tel.fallbackReads.Add(1)
	}
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
func (m *Mux) telIO(op string, t *Tier, path string, bytes int64, t0 time.Time, err error) {
	if t0.IsZero() {
		return
	}
	tt := &t.tel
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
	if err != nil || dur >= slowOp {
		ev := telemetry.TraceEvent{Op: op, Tier: t.ID, Path: path, Dur: dur}
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
	if err != nil || dur >= slowOp {
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
	if err != nil || dur >= slowOp {
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

	// Tenants is the per-tenant attribution section (tenant.go): op and
	// byte counters, virtual-time latency quantiles, and per-tier
	// occupancy. Empty unless tenants are registered.
	Tenants []TenantTelemetry `json:"tenants,omitempty"`

	Traces []telemetry.TraceEvent `json:"traces"`

	// Families is everything /metrics exports — the registry's
	// instruments, Mux's own families and every layer's collected ones
	// (stripe tiers, RPC pools, the namespace server, the autotuner).
	Families []telemetry.JSONFamily `json:"families"`
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
	for _, t := range m.tierTab.Load().live {
		row := TierRouteTelemetry{
			Tier:          t.ID,
			TierName:      t.Prof.Name,
			RoutedMirror:  t.tel.routedMirror.Value(),
			RoutedPrimary: t.tel.routedPrimary.Value(),
			FallbackReads: t.tel.fallbackReads.Value(),
			InFlight:      t.gate.InFlight(),
			Width:         t.gate.Width(),
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
		Families:      telemetry.JSONFamilies(m.tel.Snapshot()),
	}
	for op, c := range m.telMeta {
		snap.MetaOps[metaOpNames[op]] = c.Value()
	}
	for _, t := range m.tierTab.Load().live {
		tt := &t.tel
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

// collect is Mux's telemetry.Collector, registered on its own registry:
// the stats surfaces that live outside the registry (cache, OCC, BLT,
// health, usage, tenants), then the families of every live tier that is
// itself a Collector, labeled by tier id, and the autotuner's.
func (m *Mux) collect() []telemetry.FamilySnapshot {
	counterFam, gaugeFam, one := telemetry.CounterFamily, telemetry.GaugeFamily, telemetry.Sample

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

	tiers := telemetry.Columns{
		gaugeFam("mux_tier_used_bytes", "Mux-accounted bytes per tier."),
		counterFam("mux_tier_health_ops_total", "Downward data ops attempted per tier."),
		counterFam("mux_tier_health_faults_total", "Downward op attempts failed by device faults."),
		counterFam("mux_tier_health_retries_total", "Transient-fault retries per tier."),
		counterFam("mux_tier_quarantines_total", "Times a tier's circuit breaker opened."),
		gaugeFam("mux_tier_state", "Breaker state per tier: 0 healthy, 1 quarantined, 2 probing."),
		gaugeFam("mux_tier_inflight", "Data-path ops currently holding a slot on the tier's data-path gate."),
		gaugeFam("mux_tier_inflight_width", "Data-path gate width per tier."),
	}
	var tierFams []telemetry.FamilySnapshot
	for _, t := range m.tierTab.Load().live {
		info := t.health.snapshot(t.ID, t.Prof.Name)
		tier := telemetry.Label{Key: "tier", Value: strconv.Itoa(t.ID)}
		tiers.Row([]int64{t.used.Load(), info.Ops, info.Faults, info.Retries, info.Quarantines,
			int64(t.health.State()), int64(t.gate.InFlight()), int64(t.gate.Width())},
			tier, telemetry.Label{Key: "dev", Value: t.Prof.Name})
		if c, ok := t.FS.(telemetry.Collector); ok {
			tierFams = append(tierFams, telemetry.WithLabels(c.Collect(), tier)...)
		}
	}
	fams = append(append(fams, tiers...), tierFams...)

	// Per-tenant attribution (tenant.go). Latency gauges are VIRTUAL
	// nanoseconds (simclock), not wall clock — deterministic under the
	// experiment harness, which is what the E14 isolation gates scrape.
	if tens := m.TenantTelemetrySnapshot(); len(tens) > 0 {
		cols := telemetry.Columns{
			counterFam("mux_tenant_reads_total", "Upward reads attributed per tenant."),
			counterFam("mux_tenant_writes_total", "Upward writes attributed per tenant."),
			counterFam("mux_tenant_read_bytes_total", "Bytes served to each tenant's reads."),
			counterFam("mux_tenant_write_bytes_total", "Bytes accepted from each tenant's writes."),
			counterFam("mux_tenant_errors_total", "Failed attributed ops per tenant."),
			gaugeFam("mux_tenant_fast_tier_bytes", "Tenant bytes resident on the fastest tier (as of the last policy round)."),
			gaugeFam("mux_tenant_read_p99_virtual_ns", "Per-tenant p99 read latency in VIRTUAL (simclock) nanoseconds."),
			gaugeFam("mux_tenant_write_p99_virtual_ns", "Per-tenant p99 write latency in VIRTUAL (simclock) nanoseconds."),
		}
		for _, tn := range tens {
			cols.Row([]int64{tn.Reads, tn.Writes, tn.ReadBytes, tn.WriteBytes, tn.Errors, tn.FastBytes,
				int64(tn.ReadP99), int64(tn.WriteP99)}, telemetry.Label{Key: "tenant", Value: tn.Name})
		}
		fams = append(fams, cols...)
	}

	if tn := m.tunerP.Load(); tn != nil {
		fams = append(fams, tn.Collect()...)
	}
	return fams
}
