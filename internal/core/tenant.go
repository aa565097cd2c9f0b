// Multi-tenant attribution: a tenant is a registered path prefix, and Mux
// attributes every upward data op whose path falls under it — op counts,
// bytes, errors, and latency distributions — plus the tenant's per-tier
// byte occupancy, refreshed by each Policy Runner round. This is the
// observability half of the §4 "Configuring Mux" story (the enforcement
// half is policy.QuotaPolicy): sharing one Mux among applications is only
// safe if you can SEE who is consuming the fast tiers.
//
// Design constraints, matching the rest of the telemetry layer:
//
//   - Zero cost when unused: the tenant table sits behind an atomic
//     pointer; with no tenants registered the data path pays exactly one
//     atomic load (the E9 overhead gate stays intact).
//   - Lock-free when used: registration copy-on-write-swaps the table;
//     the hot path resolves by longest prefix over a handful of entries
//     and books into per-tenant atomics and sharded histograms.
//   - Tenant latency is VIRTUAL time (simclock deltas), unlike the
//     wall-clock registry instruments: tenant metrics feed E14's
//     isolation gates, which must be deterministic across hosts. The two
//     kinds are never mixed in one series.
package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"muxfs/internal/policy"
	"muxfs/internal/policy/autotune"
	"muxfs/internal/telemetry"
)

// tenantStat is one tenant's attribution state. Counters are cumulative;
// tierBytes is a gauge refreshed by the Policy Runner's snapshot loop.
type tenantStat struct {
	name   string
	prefix string

	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64
	errs                  atomic.Int64

	// Virtual-time latency distributions (simclock ns, not wall clock).
	readLat  *telemetry.Histogram
	writeLat *telemetry.Histogram

	// tierBytes maps tier id -> bytes this tenant's files occupy there,
	// replaced wholesale each policy round (nil until the first round).
	tierBytes atomic.Pointer[map[int]int64]
}

// bookRead attributes one upward read: count, bytes, virtual latency, and
// errors (io.EOF is a short read, not an error).
func (ts *tenantStat) bookRead(virtNS int64, n int, err error) {
	ts.reads.Add(1)
	if n > 0 {
		ts.readBytes.Add(int64(n))
	}
	ts.readLat.Record(virtNS)
	if err != nil && err != io.EOF {
		ts.errs.Add(1)
	}
}

// bookWrite attributes one upward write.
func (ts *tenantStat) bookWrite(virtNS int64, n int, err error) {
	ts.writes.Add(1)
	if n > 0 {
		ts.writeBytes.Add(int64(n))
	}
	ts.writeLat.Record(virtNS)
	if err != nil {
		ts.errs.Add(1)
	}
}

// tenantTable is the copy-on-write tenant set, longest-prefix-first so
// resolve returns the most specific match.
type tenantTable struct {
	tenants []*tenantStat
}

// resolve maps a path to its owning tenant (nil when no prefix matches).
func (tt *tenantTable) resolve(path string) *tenantStat {
	for _, ts := range tt.tenants {
		if strings.HasPrefix(path, ts.prefix) {
			return ts
		}
	}
	return nil
}

// RegisterTenant attributes ops and occupancy under a path prefix to a
// named tenant. The prefix is matched literally against cleaned paths
// (register "/tenants/a/" to scope a directory subtree). Registering an
// existing name replaces its prefix but keeps its counters.
func (m *Mux) RegisterTenant(name, prefix string) error {
	if name == "" || prefix == "" || !strings.HasPrefix(prefix, "/") {
		return fmt.Errorf("mux: tenant needs a name and an absolute path prefix")
	}
	m.tierMu.Lock() // reuse the table-writer lock; registration is rare
	defer m.tierMu.Unlock()
	var old []*tenantStat
	if tab := m.tenantsP.Load(); tab != nil {
		old = tab.tenants
	}
	next := make([]*tenantStat, 0, len(old)+1)
	var reuse *tenantStat
	for _, ts := range old {
		if ts.name == name {
			reuse = ts
			continue
		}
		next = append(next, ts)
	}
	if reuse == nil {
		reuse = &tenantStat{
			name:     name,
			readLat:  telemetry.NewHistogram(),
			writeLat: telemetry.NewHistogram(),
		}
	}
	reuse.prefix = prefix
	next = append(next, reuse)
	sort.SliceStable(next, func(i, j int) bool {
		if len(next[i].prefix) != len(next[j].prefix) {
			return len(next[i].prefix) > len(next[j].prefix)
		}
		return next[i].name < next[j].name
	})
	m.tenantsP.Store(&tenantTable{tenants: next})
	return nil
}

// UnregisterTenant removes a tenant (no-op if absent). An empty table
// stays allocated; the data-path gate only checks for nil OR empty once.
func (m *Mux) UnregisterTenant(name string) {
	m.tierMu.Lock()
	defer m.tierMu.Unlock()
	tab := m.tenantsP.Load()
	if tab == nil {
		return
	}
	next := make([]*tenantStat, 0, len(tab.tenants))
	for _, ts := range tab.tenants {
		if ts.name != name {
			next = append(next, ts)
		}
	}
	if len(next) == 0 {
		m.tenantsP.Store(nil)
		return
	}
	m.tenantsP.Store(&tenantTable{tenants: next})
}

// tenantFor resolves the tenant owning a path (nil when attribution is
// off or no prefix matches) — the data path's single-atomic-load gate.
func (m *Mux) tenantFor(path string) *tenantStat {
	tab := m.tenantsP.Load()
	if tab == nil {
		return nil
	}
	return tab.resolve(path)
}

// TenantTelemetry is one tenant's snapshot in the unified telemetry view.
// Latency quantiles are VIRTUAL nanoseconds (deterministic under
// simclock), unlike the wall-clock Ops series.
type TenantTelemetry struct {
	Name   string `json:"name"`
	Prefix string `json:"prefix"`

	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	ReadBytes  int64 `json:"read_bytes"`
	WriteBytes int64 `json:"write_bytes"`
	Errors     int64 `json:"errors"`

	ReadP50  time.Duration `json:"read_p50_ns"`
	ReadP99  time.Duration `json:"read_p99_ns"`
	ReadMean time.Duration `json:"read_mean_ns"`
	WriteP99 time.Duration `json:"write_p99_ns"`

	// TierBytes is the tenant's occupancy by tier id as of the last policy
	// round; FastBytes is its slice of the fastest live tier.
	TierBytes map[int]int64 `json:"tier_bytes,omitempty"`
	FastBytes int64         `json:"fast_bytes"`
}

// ReadLatSnapshot returns a tenant's cumulative virtual read-latency
// histogram by name (zero snapshot if unknown) — benchmark harnesses diff
// these across phases.
func (m *Mux) ReadLatSnapshot(tenant string) telemetry.HistSnapshot {
	tab := m.tenantsP.Load()
	if tab == nil {
		return telemetry.HistSnapshot{}
	}
	for _, ts := range tab.tenants {
		if ts.name == tenant {
			return ts.readLat.Snapshot()
		}
	}
	return telemetry.HistSnapshot{}
}

// TenantTelemetrySnapshot assembles the per-tenant section, sorted by
// name.
func (m *Mux) TenantTelemetrySnapshot() []TenantTelemetry {
	tab := m.tenantsP.Load()
	if tab == nil {
		return nil
	}
	fastID := -1
	if live := m.tierTab.Load().live; len(live) > 0 {
		fastID = live[0].ID
	}
	out := make([]TenantTelemetry, 0, len(tab.tenants))
	for _, ts := range tab.tenants {
		rl := ts.readLat.Snapshot()
		wl := ts.writeLat.Snapshot()
		row := TenantTelemetry{
			Name: ts.name, Prefix: ts.prefix,
			Reads: ts.reads.Load(), Writes: ts.writes.Load(),
			ReadBytes: ts.readBytes.Load(), WriteBytes: ts.writeBytes.Load(),
			Errors:   ts.errs.Load(),
			ReadP50:  time.Duration(rl.Quantile(0.50)),
			ReadP99:  time.Duration(rl.Quantile(0.99)),
			ReadMean: time.Duration(rl.Mean()),
			WriteP99: time.Duration(wl.Quantile(0.99)),
		}
		if tb := ts.tierBytes.Load(); tb != nil {
			row.TierBytes = *tb
			if fastID >= 0 {
				row.FastBytes = (*tb)[fastID]
			}
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// refreshTenantOccupancy recomputes every tenant's per-tier byte gauge
// from one policy round's file snapshot (runner.go calls it with the
// FileStats it already collected — no second pass over the namespace).
func (m *Mux) refreshTenantOccupancy(stats []policy.FileStat) {
	tab := m.tenantsP.Load()
	if tab == nil {
		return
	}
	acc := make(map[*tenantStat]map[int]int64, len(tab.tenants))
	for _, ts := range tab.tenants {
		acc[ts] = map[int]int64{}
	}
	for _, fs := range stats {
		ts := tab.resolve(fs.Path)
		if ts == nil {
			continue
		}
		for i, tier := range fs.Tiers {
			acc[ts][tier] += fs.TierBytes[i]
		}
	}
	for ts, tb := range acc {
		tbCopy := tb
		ts.tierBytes.Store(&tbCopy)
	}
}

// --- autotuner wiring -----------------------------------------------------

// EnableAutotune builds an autotune.Tuner for the CURRENT policy and
// installs it: every RunPolicyOnce round then feeds the tuner a telemetry
// sample and lets it adjust the policy's knobs. Fails if the policy
// exposes no tunable params. Swapping the policy (SetPolicy) does not
// retarget a live tuner — call EnableAutotune again.
func (m *Mux) EnableAutotune(opts autotune.Options) error {
	tn, err := autotune.New(m.policy(), opts)
	if err != nil {
		return err
	}
	m.tunerP.Store(tn)
	return nil
}

// DisableAutotune detaches the tuner; knobs keep their last values.
func (m *Mux) DisableAutotune() { m.tunerP.Store(nil) }

// Autotuner returns the live tuner (nil when disabled) for status and
// decision-log rendering.
func (m *Mux) Autotuner() *autotune.Tuner { return m.tunerP.Load() }

// autotuneSample assembles the cumulative counters one controller round
// scores. Per-tier read counts come from the wall-telemetry instruments
// (the registry is on by default; with it disabled the tuner sees idle
// intervals and holds), the latency histogram from the virtual-time
// tenant series, churn from the OCC synchronizer, cache counters from the
// SCM controller.
func (m *Mux) autotuneSample() autotune.Sample {
	s := autotune.Sample{Now: m.now()}
	s.MovedBytes = m.occ.snapshot().BytesMoved
	cs := m.CacheStats()
	s.CacheHits, s.CacheMisses = cs.Hits, cs.Misses
	live := m.tierTab.Load().live
	for i, t := range live {
		c := t.tel.readLat.Snapshot().Count
		s.TotalReads += c
		if i == 0 {
			s.FastReads = c
			s.FastUsed = t.used.Load()
			s.FastCap = t.Prof.Capacity
		}
	}
	if tab := m.tenantsP.Load(); tab != nil {
		var merged telemetry.HistSnapshot
		for _, ts := range tab.tenants {
			merged.Merge(ts.readLat.Snapshot())
		}
		s.ReadLat = merged
	}
	return s
}
