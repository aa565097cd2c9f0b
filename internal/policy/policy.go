// Package policy defines Mux's user-defined tiering policy interface and
// the built-in policies.
//
// The paper (§2.1) argues that "all the placement and migration policies in
// existing tiered file systems can be expressed using simple functions" —
// and encodes them as kernel modules or eBPF programs. Here a policy is a
// plain Go value implementing Policy: PlaceWrite is the synchronous
// placement hook on the write path, PlanMigrations is the asynchronous
// rebalancing hook the Policy Runner invokes.
package policy

import (
	"time"

	"muxfs/internal/device"
)

// TierInfo is the device profile + usage snapshot a policy decides over.
type TierInfo struct {
	ID       int
	Name     string
	Class    device.Class
	Capacity int64
	Used     int64
	ReadLat  time.Duration
	WriteLat time.Duration

	// Stripe marks a composite erasure-coded capacity tier (internal/ec).
	// Stripe tiers hold whole-file shards across remote nodes; policies
	// that shuffle individual files for capacity reasons (quota demotion)
	// should prefer a plain slower tier over a stripe set when one exists,
	// since a stripe write fans out to every node.
	Stripe bool
}

// Free returns the unallocated bytes of the tier.
func (t TierInfo) Free() int64 { return t.Capacity - t.Used }

// UsedFrac returns the fill fraction in [0, 1].
func (t TierInfo) UsedFrac() float64 {
	if t.Capacity == 0 {
		return 1
	}
	return float64(t.Used) / float64(t.Capacity)
}

// WriteCtx describes one write about to be placed.
type WriteCtx struct {
	Path     string
	Off, N   int64
	FileSize int64 // size before this write
	Sync     bool  // caller hinted synchronous durability (O_SYNC-ish)
}

// FileStat is the per-file heat snapshot used for migration planning.
type FileStat struct {
	Path       string
	Size       int64
	LastAccess time.Duration // virtual time of last read/write
	Heat       float64       // decayed access frequency
	Tiers      []int         // tier IDs currently holding blocks, ascending
	TierBytes  []int64       // bytes of the file mapped on Tiers[i]

	// Replica is the file's mirror tier, -1 when unreplicated. (The Policy
	// Runner always fills it; hand-built FileStats should set it explicitly
	// or be built with NewFileStat — the zero value would read as "mirrored
	// on tier 0".)
	Replica int
	// ReplicaDegraded marks a mirror that diverged after a failed mirror
	// write; it serves no reads until repaired.
	ReplicaDegraded bool
}

// NewFileStat returns a FileStat with the non-obvious zero values fixed up:
// Replica is -1 (unreplicated) rather than the footgun zero value, which
// would read as "mirrored on tier 0". External policy authors building
// FileStats by hand (tests, custom planners) should start from this.
func NewFileStat(path string, size int64) FileStat {
	return FileStat{Path: path, Size: size, Replica: -1}
}

// BytesOn returns the bytes of the file mapped on tier id.
func (f *FileStat) BytesOn(id int) int64 {
	for i, t := range f.Tiers {
		if t == id && i < len(f.TierBytes) {
			return f.TierBytes[i]
		}
	}
	return 0
}

// Move is one recommended block migration. N == -1 means the whole file.
//
// A Move with Mirror set is a replica-placement action instead of a block
// migration: DstTier >= 0 establishes (or re-syncs) a full mirror of the
// file on that tier, DstTier == -1 clears the file's mirror (SrcTier names
// the tier being vacated). Mirror moves let a policy promote-by-mirroring —
// a warm file gains a fast-tier copy for the read router without giving up
// its primary placement — and clear mirrors ahead of primary demotions.
type Move struct {
	Path    string
	SrcTier int
	DstTier int
	Off, N  int64
	Promote bool // true when moving toward a faster tier
	Mirror  bool // replica placement (SetReplica/ClearReplica), not a migration
	// Quota marks a demotion emitted to enforce a capacity quota
	// (QuotaPolicy) rather than by the base policy's own plan; the
	// migration engine counts executed quota moves separately in
	// MigrationStats.QuotaDemotions so quota pressure is visible in
	// telemetry.
	Quota bool
}

// Policy is the user-defined tiering rule set. Implementations must be
// stateless or internally synchronized: Mux may call PlaceWrite
// concurrently.
type Policy interface {
	// Name identifies the policy in logs and benchmark output.
	Name() string
	// PlaceWrite picks the tier for newly allocated blocks of a write.
	// Tiers arrive sorted fastest-first. Mux reuses tiers for the next
	// placement, so a policy must not keep it past the call.
	PlaceWrite(ctx WriteCtx, tiers []TierInfo) int
	// PlanMigrations proposes moves given current usage and file heat.
	// The Policy Runner executes them via the OCC Synchronizer. It reuses
	// files and the slices inside it in its next round, so a policy must
	// not keep them past the call.
	PlanMigrations(tiers []TierInfo, files []FileStat, now time.Duration) []Move
}

// fastestWithRoom returns the id of the first (fastest) tier that can hold
// n more bytes below the given fill watermark, else the last tier.
func fastestWithRoom(tiers []TierInfo, n int64, watermark float64) int {
	for _, t := range tiers {
		if float64(t.Used+n) <= watermark*float64(t.Capacity) {
			return t.ID
		}
	}
	return tiers[len(tiers)-1].ID
}
