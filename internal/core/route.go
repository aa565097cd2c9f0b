package core

import (
	"errors"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/telemetry"
)

// Mirror-optimized read routing: replicas as a performance resource, not
// just a durability one. PR 3's replication only ever touched the mirror
// *after* the primary errored (readWithReplicaFallback); this router treats
// the two copies of a replicated file as interchangeable read sources and
// dispatches every read segment to whichever copy currently looks cheaper —
// the file-system-level placement freedom the paper argues device drivers
// cannot express.
//
// A copy's score is
//
//	(profile read latency + recent observed read p95) × (1 + in-flight depth)
//
// combining three signals the tier's record (Tier) already holds:
//
//   - the tier's static device profile (Tier.Prof),
//   - live telemetry: the p95 of the tier's recent read latency, computed
//     as an interval delta over the tier's read histogram and cached in
//     Tier.route so the hot path never walks 392 buckets (refreshed at most
//     every routeRefresh of wall time by a CAS-elected reader),
//   - the current occupancy of the tier's data-path gate (Tier.gate), which
//     makes the score rise linearly with queue depth so concurrent readers
//     spread across both copies instead of herding onto the faster device.
//
// Safety rules:
//
//   - Quarantined tiers are never routed to. A quarantined *primary* routes
//     to the mirror outright; a quarantined mirror is ignored.
//   - Routed mirror reads are OCC-checked: ClearReplica unpublishes the
//     routable mark and bumps mapVer *before* punching the mirror, and the
//     routed read rechecks mapVer after the device call, so a read racing
//     the punch discards its (possibly zeroed) bytes and falls back to the
//     primary path.
//   - Any mirror miss — error, short read, lost OCC race — falls through to
//     the unchanged primary read, which still has readWithReplicaFallback
//     behind it. Routing can therefore never fail a read that would have
//     succeeded without it.
//   - Routing is gated on one atomic load (routeReads); disabled, the read
//     path is exactly the pre-routing code.

// routeRefresh is the minimum wall time between refreshes of a tier's
// cached recent-read-latency estimate. Short enough to follow a device
// browning out, long enough that the 392-bucket histogram walk never shows
// up in per-read cost.
const routeRefresh = 2 * time.Millisecond

// routeStat caches one tier's routing signal. est is the p95 of the reads
// recorded against the tier during the last refresh interval (0 until the
// first interval with traffic — the score then degrades to profile latency
// plus depth, which is also the steady state when telemetry is disabled).
type routeStat struct {
	est   atomic.Int64 // recent read-latency p95, ns
	stamp atomic.Int64 // wall ns of the last refresh; CAS elects a refresher
	mu    sync.Mutex   // guards prev (held only by the elected refresher)
	prev  telemetry.HistSnapshot
}

// SetMirrorRouting toggles mirror-read routing at runtime (also set at
// construction via Config.MirrorReadRouting). Disabled is the default and
// restores the exact pre-routing read path.
func (m *Mux) SetMirrorRouting(on bool) { m.routeReads.Store(on) }

// MirrorRouting reports whether mirror-read routing is enabled.
func (m *Mux) MirrorRouting() bool { return m.routeReads.Load() }

// routeLat returns the tier's cached recent-read-latency estimate,
// refreshing it from the telemetry histograms when it is older than
// routeRefresh. One caller wins the CAS and pays the snapshot; everyone
// else keeps reading the cached value. An interval with no reads *halves*
// the previous estimate instead of keeping or zeroing it: keeping it
// forever would strand a tier on a stale-high reputation no read can ever
// refute (nothing routes there, so nothing remeasures it), while dropping
// straight to zero would stampede every reader back onto a device that was
// just measured slow. Exponential decay re-probes an idle tier at a
// bounded rate — a recovered device wins traffic back within a few refresh
// intervals, a still-sick one costs one probe per interval.
func (m *Mux) routeLat(t *Tier) int64 {
	rs := &t.route
	now := time.Now().UnixNano()
	last := rs.stamp.Load()
	if now-last >= int64(routeRefresh) && rs.stamp.CompareAndSwap(last, now) {
		if m.tel.Enabled() {
			cur := t.tel.readLat.Snapshot()
			rs.mu.Lock()
			delta := cur.Delta(rs.prev)
			rs.prev = cur
			rs.mu.Unlock()
			if delta.Count > 0 {
				// The observed median is queue-inclusive — it carries whatever
				// wait the tier had this interval — but the score multiplies
				// by live depth again, so feed est a *per-op service* estimate:
				// divide the observation by the tier's current occupancy.
				// Blend rather than jump: chasing each interval wholesale makes
				// the score seesaw (every reader flips to the other copy, which
				// then measures slow, and flips back); halving toward the
				// observation keeps the estimate responsive within a few
				// intervals while damping the herd.
				obs := delta.Quantile(0.50) / int64(1+t.gate.InFlight())
				rs.est.Store((rs.est.Load() + obs) / 2)
			} else {
				rs.est.Store(rs.est.Load() / 2)
			}
		}
	}
	return rs.est.Load()
}

// routeScore prices one copy of a replicated extent: expected service time
// scaled by the copy's current queue depth. Lower wins; a removed tier
// never does.
func (m *Mux) routeScore(t *Tier) int64 {
	if t.removed.Load() {
		return math.MaxInt64
	}
	lat := int64(t.Prof.ReadLatency) + m.routeLat(t)
	if lat < 1 {
		lat = 1
	}
	return lat * int64(1+t.gate.InFlight())
}

// routeTarget decides which copy serves a read segment of tier `primary`.
// It returns (tier, true) when a routing decision was made — the tier is
// the winner, possibly the primary itself — and (nil, false) when routing
// is off, the file has no routable mirror, or the mirror is quarantined
// (the segment then takes the plain primary path and no decision is
// counted).
func (m *Mux) routeTarget(f *muxFile, primary *Tier) (*Tier, bool) {
	if !m.routeReads.Load() {
		return nil, false
	}
	rt := int(f.routableReplica.Load())
	if rt < 0 || rt == primary.ID {
		return nil, false
	}
	mirror := m.tierRec(rt)
	if mirror == nil || mirror.quarantined() {
		return nil, false
	}
	if primary.quarantined() {
		// The primary would fail fast and bounce through the error-fallback
		// path; go straight to the healthy mirror.
		return mirror, true
	}
	if m.routeScore(mirror) < m.routeScore(primary) {
		return mirror, true
	}
	return primary, true
}

// readRoutedMirror serves one read segment from the file's mirror on tier
// rt. Returns true only when the mirror delivered the full range and the
// OCC recheck passed; any miss leaves the caller to run the unchanged
// primary path (which overwrites dst entirely). Caller must not hold f.mu.
func (m *Mux) readRoutedMirror(f *muxFile, rt *Tier, dst []byte, off int64) bool {
	dh := (*f.handleSnap.Load())[rt.ID]
	if dh == nil {
		var err error
		if dh, err = m.ensureHandle(f, rt.ID); err != nil {
			return false
		}
	}
	// OCC window: snapshot mapVer, then re-verify the mirror is still
	// routable. ClearReplica unpublishes the mark and bumps mapVer before it
	// punches, so a punch racing this read either flips the routable check
	// here or fails the mapVer recheck below — zeroed mirror bytes can never
	// be returned as data.
	ver := f.mapVer.Load()
	if int(f.routableReplica.Load()) != rt.ID {
		return false
	}
	t0 := m.telStart()
	rt.gate.Acquire()
	nr := 0
	err := m.tierIO(rt, func() error {
		var e error
		// io.EOF is a logical short read (mirror shorter than the mapped
		// range), not a device fault: strip it so it neither trips the
		// breaker nor hides the shortfall from the nr check below.
		if nr, e = dh.ReadAt(dst, off); e != nil && !errors.Is(e, io.EOF) {
			return e
		}
		return nil
	})
	rt.gate.Release()
	m.telIO("read", rt, f.loadPath(), int64(len(dst)), t0, err)
	if err != nil || nr < len(dst) {
		return false
	}
	return f.mapVer.Load() == ver
}

// noteRoute books one routing decision on the file (unconditional cheap
// atomics — muxsh replicas reports these even with telemetry off).
func (f *muxFile) noteRoute(tier int, mirror bool) {
	f.routedReads.Add(1)
	if mirror {
		f.mirrorHits.Add(1)
	}
	f.lastRoute.Store(int32(tier))
}

// ReplicaInfo describes one replicated file: where its copies live and how
// the read router has been using them (Mux.Replicas, muxsh replicas).
type ReplicaInfo struct {
	Path         string `json:"path"`
	Size         int64  `json:"size"`
	PrimaryTiers []int  `json:"primary_tiers"` // tiers holding authoritative blocks
	MirrorTier   int    `json:"mirror_tier"`
	Degraded     bool   `json:"degraded"`

	RoutedReads   int64 `json:"routed_reads"`   // reads that went through a routing decision
	MirrorHits    int64 `json:"mirror_hits"`    // routed reads the mirror served
	FallbackReads int64 `json:"fallback_reads"` // error-path reads the mirror served
	LastRoute     int   `json:"last_route"`     // tier of the last routing decision, -1 = none yet
}

// Replicas lists the replicated files, sorted by path.
func (m *Mux) Replicas() []ReplicaInfo {
	var out []ReplicaInfo
	for _, f := range m.files.snapshot() {
		f.mu.Lock()
		if f.replica < 0 {
			f.mu.Unlock()
			continue
		}
		perTier := f.bytesPerTier()
		prim := make([]int, 0, len(perTier))
		for id := range perTier {
			prim = append(prim, id)
		}
		sort.Ints(prim)
		out = append(out, ReplicaInfo{
			Path:         f.path,
			Size:         f.meta.Size,
			PrimaryTiers: prim,
			MirrorTier:   f.replica,
			Degraded:     f.replicaDegraded,

			RoutedReads:   f.routedReads.Load(),
			MirrorHits:    f.mirrorHits.Load(),
			FallbackReads: f.fallbackReads.Load(),
			LastRoute:     int(f.lastRoute.Load()),
		})
		f.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
