// Package core implements Mux, the paper's contribution: a tiered file
// system that accesses heterogeneous storage *through device-specific file
// systems* rather than through device drivers.
//
// Mux implements vfs.FileSystem upward — applications see one file system
// with one namespace — and calls the same vfs.FileSystem interface downward
// on every registered tier (Figure 1). A file is distributed across tiers
// as same-path sparse files whose block offsets are preserved, so no extra
// translation layer exists (§2.2). The components named in Figure 1c map to
// this package as follows:
//
//	VFS Call Processor / FS Multiplexer / VFS Call Maker  — mux.go, file.go
//	Metadata Tracker / State Bookkeeper (affinity)        — file.go, meta.go
//	File Blk. Tracker (Block Lookup Table)                — file.go (blt)
//	OCC Synchronizer                                      — occ.go
//	Policy Runner                                         — runner.go
//	Cache Controller                                      — cachectl.go
//	Sharded namespace / inode table                       — fsbase.Namespace, inotable.go
//
// Concurrency: there is no global Mux lock. The namespace is sharded
// (fsbase.Namespace, shared with the native file systems), the tier table
// is a copy-on-write snapshot behind an atomic pointer, and per-read
// bookkeeping is lock-free; see DESIGN.md "Concurrency & lock order".
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fsbase"
	"muxfs/internal/guard"
	"muxfs/internal/policy"
	"muxfs/internal/policy/autotune"
	"muxfs/internal/simclock"
	"muxfs/internal/telemetry"
	"muxfs/internal/vfs"
)

// BlockSize is the Block Lookup Table granule (one byte of BLT state per
// block of user data, §2.3).
const BlockSize = 4096

// Errors specific to the Mux layer.
var (
	// ErrNoTiers reports an operation on a Mux with no registered tiers.
	ErrNoTiers = errors.New("mux: no tiers registered")
	// ErrTierBusy reports removal of a tier that still holds data.
	ErrTierBusy = errors.New("mux: tier still holds data; drain it first")
	// ErrUnknownTier reports a bad tier id.
	ErrUnknownTier = errors.New("mux: unknown tier")
	// ErrMigrationActive reports a second migration on a file already
	// migrating.
	ErrMigrationActive = errors.New("mux: file already migrating")
)

// Costs models the Mux software path charged to the virtual clock — the
// indirection overhead §3.2 measures. Calibrated in EXPERIMENTS.md.
type Costs struct {
	DispatchOp  time.Duration // VFS call processing + downward call maker
	BLTLookup   time.Duration // block lookup table query on the read path
	BLTUpdate   time.Duration // per 4 KiB block mapped/remapped on writes
	OCCCheck    time.Duration // version bookkeeping per user op
	MetaOp      time.Duration // namespace operations
	OCCPerBlock time.Duration // migration bookkeeping per block copied
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		DispatchOp:  160 * time.Nanosecond,
		BLTLookup:   80 * time.Nanosecond,
		BLTUpdate:   20 * time.Nanosecond,
		OCCCheck:    25 * time.Nanosecond,
		MetaOp:      700 * time.Nanosecond,
		OCCPerBlock: 350 * time.Nanosecond,
	}
}

// Tier is one registered native file system plus its device profile (the
// "device profile" tiering policies consume, §2.1). It is also the record of
// the tier's runtime state: every per-tier mechanism keeps its share here,
// so one lookup by id reaches the tier's usage counter, health tracker,
// data-path gate, read-router estimate, write epoch and telemetry
// instruments.
type Tier struct {
	ID   int
	FS   vfs.FileSystem
	Prof device.Profile

	used    atomic.Int64 // Mux-accounted bytes the BLTs map here
	removed atomic.Bool  // set by RemoveTier; tier(id) refuses the id after
	health  tierHealth   // circuit breaker and retry count (health.go)
	gate    *guard.Gate  // data-path admission (fanout.go)
	route   routeStat    // read-router latency estimate (route.go)
	tel     tierTel      // pre-resolved instruments (telemetry.go)

	// The write epoch the tier barrier reads (epoch.go). fs is FS behind
	// the booking: core mutates the tier only through it and the handles
	// it opens, so writes counts every mutating call Mux has sent the
	// tier. durable is the value of writes the tier's last successful
	// FS.Sync covered.
	fs      tierFS
	writes  atomic.Uint64
	durable atomic.Uint64
}

// tierTable is the copy-on-write tier snapshot: AddTier/RemoveTier build a
// new table and swap the pointer, so lookups on the data path never take a
// lock and never observe a half-updated table.
type tierTable struct {
	// tiers holds every tier ever added, dense by id. A removed tier keeps
	// its record, so usage accounting, Fsck and Recover still reach it.
	tiers []*Tier
	live  []*Tier // registered tiers, sorted fastest-first
}

func liveOf(tiers []*Tier) []*Tier {
	out := make([]*Tier, 0, len(tiers))
	for _, t := range tiers {
		if !t.removed.Load() {
			out = append(out, t)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Prof.ReadLatency < out[j].Prof.ReadLatency
	})
	return out
}

// Config assembles a Mux instance.
type Config struct {
	Name  string
	Clock *simclock.Clock
	Costs Costs
	// Policy is the tiering policy (default: policy.DefaultLRU()).
	Policy policy.Policy
	// MetaDevice, when set, persists Mux's own metadata (BLT, affinity,
	// namespace) through a journal on this device — "its own separate
	// metafile storage" (§3.1). Nil keeps Mux metadata in memory only.
	MetaDevice *device.Device
	// MetaSyncEvery: push collective-inode attributes down to the owning
	// file systems every K mutating ops (lazy synchronization, §2.3).
	// Default 64.
	MetaSyncEvery int
	// MigrationRetries bounds OCC retry rounds before the lock fallback
	// (§2.4). Default 3.
	MigrationRetries int
	// RecoveryWorkers sizes the parallel crash-recovery machinery: journal
	// replay applies per-inode record streams on this many goroutines (the
	// namespace-structural pass stays ordered), and Fsck shards its
	// per-file verification the same way. Default runtime.GOMAXPROCS(0);
	// 1 degrades to fully serial recovery (the E11 baseline).
	RecoveryWorkers int
	// CheckpointBytes is the meta-journal periodic-checkpoint threshold: a
	// group-commit flush that leaves more than this many bytes in the
	// active log triggers compaction, keeping recovery replay O(delta
	// since the last checkpoint). Default: half the journal half-region.
	CheckpointBytes int64
	// MigrationWorkers sizes the parallel migration engine's worker pool
	// (engine.go): the Policy Runner copies up to this many planned moves
	// concurrently, one move per file at a time so per-file OCC ordering
	// is preserved. Default runtime.GOMAXPROCS(0); 1 degrades to serial
	// copies with the single-buffer copy path.
	MigrationWorkers int
	// MigrationLogf, when set, receives a log line from PolicyRunner after
	// each round that planned at least one move (and after failed rounds).
	MigrationLogf func(format string, args ...any)
	// LockMigration disables the OCC Synchronizer: migrations hold the
	// per-file lock for their whole duration, the way traditional tiered
	// file systems do (§2.4). Ablation A1 compares the two modes.
	LockMigration bool
	// SyncAllMeta disables metadata affinity: every metadata sync writes
	// the attributes through to every file system holding the file, instead
	// of only the affinitive owner (§2.3). Ablation A2 compares the two.
	SyncAllMeta bool

	// DataFanout bounds how many per-tier segment groups of one
	// ReadAt/WriteAt/Sync may dispatch concurrently (fanout.go). Default
	// defaultDataFanout; 1 degrades to serial dispatch.
	DataFanout int

	// MirrorReadRouting enables the mirror read router (route.go): reads of
	// replicated files are dispatched to whichever copy — primary or mirror —
	// currently scores cheaper by device profile, recent observed latency,
	// and in-flight depth. Off by default; disabled, the read path is exactly
	// the pre-routing behavior (the mirror serves error fallbacks only). Can
	// be toggled at runtime with SetMirrorRouting.
	MirrorReadRouting bool

	// Telemetry knobs (telemetry.go). Recording is ON by default — E9
	// gates its overhead at 5% of the E8 metadata-hot workload, so it is
	// cheap enough to leave on; DisableTelemetry turns it off (one atomic
	// load per would-be record). It can also be toggled at runtime with
	// SetTelemetryEnabled.
	DisableTelemetry bool

	// Tier fault-domain knobs (health.go). Zero values take the defaults.
	//
	// RetryBackoff is the first retry's virtual-clock delay; it doubles per
	// attempt. Default 50µs.
	RetryBackoff time.Duration
	// BreakerCooldown is the virtual time a quarantined tier sits out
	// before the breaker goes half-open and admits a probe. Default 10ms.
	BreakerCooldown time.Duration
}

// Mux is the tiered file system. Safe for concurrent use.
type Mux struct {
	name  string
	clk   *simclock.Clock
	costs Costs

	// Namespace and inode table — sharded, internally locked
	// (fsbase.Namespace, inotable.go).
	ns    *fsbase.Namespace[*muxFile]
	files *inoTable

	// Tier table — copy-on-write snapshot of the per-tier records. tierMu
	// serializes writers (AddTier/RemoveTier); readers go through
	// tierTab.Load() and never block.
	tierMu  sync.Mutex
	tierTab atomic.Pointer[tierTable]

	// Tier fault-domain state (health.go). repairPending flags that a tier
	// recovered and degraded replicas await re-mirroring.
	repairPending   atomic.Bool
	retryBackoff    time.Duration
	breakerCooldown time.Duration

	polP      atomic.Pointer[policy.Policy]
	meta      *metaLog
	scmP      atomic.Pointer[cacheCtl]
	syncEvery int
	maxRetry  int
	lockMig   bool
	syncAll   bool

	// fanWidth bounds concurrent per-tier groups per request (fanout.go).
	fanWidth int

	// routeReads gates mirror read routing (route.go): one atomic load on
	// the read hot path when off.
	routeReads atomic.Bool

	// Parallel recovery state (meta.go replay pass 2, fsck.go): worker
	// count for per-inode replay apply and sharded fsck. recStats holds
	// the last Recover's phase wall times (written during quiesced
	// recovery, read afterwards — E11's breakdown).
	recWorkers atomic.Int32
	recStats   RecoveryStats

	// renameFix holds tier-side rename completions registered by replay:
	// the rename record commits before the per-tier file renames run, so a
	// crash in between leaves tier files at the old path. ScrubOrphans
	// executes these (completeRenames) as the first post-recovery repair.
	// Only mutated during quiesced recovery and by the scrub.
	renameFix []renameFixup

	// Parallel migration engine state (engine.go).
	migWorkers atomic.Int32 // worker-pool size; 1 = serial
	migLogf    func(format string, args ...any)
	lastMigMu  sync.Mutex
	lastMig    MigrationStats
	// round holds the policy round's reusable FileStat snapshot between
	// rounds; a round takes it, so concurrent rounds never share one.
	round atomic.Pointer[roundScratch]

	occ occCounter

	// Telemetry state (telemetry.go). tel is always non-nil; the handles
	// below are resolved once at construction, the per-tier ones as each
	// tier registers.
	tel          *telemetry.Registry
	telMeta      [mopCount]*telemetry.Counter
	telFlushLat  *telemetry.Histogram
	telFlushErrs *telemetry.Counter
	telFlushRecs *telemetry.Counter
	telMigLat    *telemetry.Histogram
	telMigErrs   *telemetry.Counter

	// Multi-tenant attribution table (tenant.go): nil when no tenants are
	// registered, so unattributed data paths pay one atomic load.
	tenantsP atomic.Pointer[tenantTable]

	// Policy autotuner (tenant.go wiring, internal/policy/autotune): when
	// set, RunPolicyOnce feeds it a telemetry sample after every round.
	tunerP atomic.Pointer[autotune.Tuner]

	// hookAfterCopy, when set (tests only), runs after each optimistic copy
	// round before validation — a deterministic window to inject racing
	// writes.
	hookAfterCopy func(round int)
	// hookBeforeReclaim, when set (tests only), runs in a migration batch
	// after its meta flush and before the source punches — a window to
	// land a rename between the two.
	hookBeforeReclaim func()
}

var _ vfs.FileSystem = (*Mux)(nil)
var _ vfs.CrashRecoverer = (*Mux)(nil)

// New creates an empty Mux; register tiers before use.
func New(cfg Config) (*Mux, error) {
	if cfg.Clock == nil {
		return nil, errors.New("mux: config needs a clock")
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.DefaultLRU()
	}
	if cfg.MetaSyncEvery <= 0 {
		cfg.MetaSyncEvery = 64
	}
	if cfg.MigrationRetries <= 0 {
		cfg.MigrationRetries = 3
	}
	if cfg.Name == "" {
		cfg.Name = "mux"
	}
	if cfg.MigrationWorkers <= 0 {
		cfg.MigrationWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = defaultBreakerCooldown
	}
	if cfg.DataFanout <= 0 {
		cfg.DataFanout = defaultDataFanout
	}
	m := &Mux{
		name:      cfg.Name,
		clk:       cfg.Clock,
		costs:     cfg.Costs,
		ns:        fsbase.NewNamespace[*muxFile](),
		files:     newInoTable(),
		syncEvery: cfg.MetaSyncEvery,
		maxRetry:  cfg.MigrationRetries,
		lockMig:   cfg.LockMigration,
		syncAll:   cfg.SyncAllMeta,
		migLogf:   cfg.MigrationLogf,
		fanWidth:  cfg.DataFanout,

		retryBackoff:    cfg.RetryBackoff,
		breakerCooldown: cfg.BreakerCooldown,
	}
	if cfg.RecoveryWorkers <= 0 {
		cfg.RecoveryWorkers = runtime.GOMAXPROCS(0)
	}
	m.polP.Store(&cfg.Policy)
	m.tierTab.Store(&tierTable{})
	m.migWorkers.Store(int32(cfg.MigrationWorkers))
	m.recWorkers.Store(int32(cfg.RecoveryWorkers))
	m.routeReads.Store(cfg.MirrorReadRouting)

	// Telemetry: registry + pre-resolved non-tier instruments. Per-tier
	// instruments are resolved as tiers register (AddTier).
	m.tel = telemetry.NewRegistry(telemetry.DefaultRingSize)
	m.tel.SetEnabled(!cfg.DisableTelemetry)
	for op := metaOp(0); op < mopCount; op++ {
		m.telMeta[op] = m.tel.Counter("mux_meta_ops_total",
			"Namespace/metadata operations by kind.",
			telemetry.Label{Key: "op", Value: metaOpNames[op]})
	}
	m.telFlushLat = m.tel.Histogram("mux_flush_latency_ns", "Group-commit journal flush wall latency in nanoseconds.")
	m.telFlushErrs = m.tel.Counter("mux_flush_errors_total", "Group-commit journal flushes that failed.")
	m.telFlushRecs = m.tel.Counter("mux_flush_records_total", "Journal records committed by group commits.")
	m.telMigLat = m.tel.Histogram("mux_migrate_move_latency_ns", "Migration move wall latency in nanoseconds.")
	m.telMigErrs = m.tel.Counter("mux_migrate_move_errors_total", "Migration moves that failed.")
	m.tel.Register(m.collect)
	if m.costs == (Costs{}) {
		m.costs = DefaultCosts()
	}
	if cfg.MetaDevice != nil {
		ml, err := newMetaLog(cfg.MetaDevice)
		if err != nil {
			return nil, err
		}
		if cfg.CheckpointBytes > 0 {
			ml.ckptBytes = cfg.CheckpointBytes
		}
		m.meta = ml
	}
	return m, nil
}

// SetRecoveryWorkers adjusts the parallel-recovery worker count at runtime
// (n < 1 is clamped to 1 — fully serial recovery).
func (m *Mux) SetRecoveryWorkers(n int) {
	if n < 1 {
		n = 1
	}
	m.recWorkers.Store(int32(n))
}

// RecoveryStats breaks the last Recover into its phases: the tiers'
// self-recovery (concurrent across tiers unless RecoveryWorkers is 1) and
// the Mux meta-journal replay (per-inode streams sharded the same way),
// with the replay's work: the records it applied and the committed log
// bytes it read. The counts repeat exactly for one log; the wall times
// vary with the host.
type RecoveryStats struct {
	TierRecover time.Duration
	Replay      time.Duration
	Records     int
	Bytes       int64
}

// LastRecoveryStats reports the phases of the most recent Recover. Valid
// once Recover has returned; recovery runs quiesced.
func (m *Mux) LastRecoveryStats() RecoveryStats { return m.recStats }

// AddTier registers a native file system as a tier at runtime (§2.1: "the
// user only needs to mount the new file system and register it"). Tiers
// sort fastest-first by read latency. It returns the tier id.
func (m *Mux) AddTier(fs vfs.FileSystem, prof device.Profile) int {
	m.tierMu.Lock()
	defer m.tierMu.Unlock()
	old := m.tierTab.Load()
	id := len(old.tiers)
	t := &Tier{
		ID: id, FS: fs, Prof: prof,
		health: tierHealth{Breaker: guard.Breaker{
			Threshold: breakerThreshold,
			Cooldown:  m.breakerCooldown,
			Now:       m.now,
		}},
		// Data-path gate, sized by the same width rule the migration engine
		// applies per round (engine.go): rotational tiers admit one
		// in-flight data op, solid-state tiers scale with profiled bandwidth.
		gate: guard.NewGate(tierWidth(prof, maxTierIOWidth)),
		// Pre-resolved so the data path never takes the registry lock.
		tel: m.newTierTel(id, prof.Name),
	}
	t.fs = tierFS{FileSystem: fs, t: t}
	tiers := make([]*Tier, id+1)
	copy(tiers, old.tiers)
	tiers[id] = t
	m.tierTab.Store(&tierTable{tiers: tiers, live: liveOf(tiers)})
	return id
}

// RemoveTier unregisters a tier. The tier must be drained first
// (DrainTier); removal fails with ErrTierBusy while it still holds data.
func (m *Mux) RemoveTier(id int) error {
	m.tierMu.Lock()
	defer m.tierMu.Unlock()
	t, err := m.tier(id)
	if err != nil {
		return ErrUnknownTier
	}
	if t.used.Load() > 0 {
		return ErrTierBusy
	}
	t.removed.Store(true)
	old := m.tierTab.Load()
	m.tierTab.Store(&tierTable{tiers: old.tiers, live: liveOf(old.tiers)})
	return nil
}

// Tiers returns the live tiers, fastest first.
func (m *Mux) Tiers() []*Tier {
	live := m.tierTab.Load().live
	out := make([]*Tier, len(live))
	copy(out, live)
	return out
}

// tierRec returns the record of tier id, removed tiers included, or nil
// when no tier ever had the id. It is the one lookup by id: lock-free, one
// atomic load.
func (m *Mux) tierRec(id int) *Tier {
	tab := m.tierTab.Load()
	if id < 0 || id >= len(tab.tiers) {
		return nil
	}
	return tab.tiers[id]
}

// tier resolves the id of a registered tier.
func (m *Mux) tier(id int) (*Tier, error) {
	if t := m.tierRec(id); t != nil && !t.removed.Load() {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownTier, id)
}

// tierInfos snapshots the policy view of all tiers, fastest first.
// Quarantined tiers are hidden from the policy so placement and migration
// planning route around the fault domain (health.go). Composite stripe
// tiers (stripe.go) are flagged so policies that relocate data lazily —
// quota demotion in particular — can prefer plain tiers as destinations.
func (m *Mux) tierInfos() []policy.TierInfo {
	n := len(m.tierTab.Load().live)
	return m.filterHealthy(m.appendTierInfos(make([]policy.TierInfo, 0, n)))
}

// appendTierInfos appends a snapshot of every live tier to dst.
func (m *Mux) appendTierInfos(dst []policy.TierInfo) []policy.TierInfo {
	for _, t := range m.tierTab.Load().live {
		_, stripe := t.FS.(StripeStatuser)
		dst = append(dst, policy.TierInfo{
			ID:       t.ID,
			Name:     t.FS.Name(),
			Class:    t.Prof.Class,
			Capacity: t.Prof.Capacity,
			Used:     t.used.Load(),
			ReadLat:  t.Prof.ReadLatency,
			WriteLat: t.Prof.WriteLatency,
			Stripe:   stripe,
		})
	}
	return dst
}

// infoPool recycles the tier snapshots new blocks are placed with, so a
// write into a hole allocates none: PlaceWrite keeps no snapshot past the
// call.
var infoPool = sync.Pool{New: func() any { return new([]policy.TierInfo) }}

// placeNew picks the tier for n newly allocated bytes: the policy's
// placement on a healthy-tier snapshot, checked against the file systems'
// free space (placeWritable).
func (m *Mux) placeNew(ctx policy.WriteCtx, n int64) int {
	pp := infoPool.Get().(*[]policy.TierInfo)
	all := m.appendTierInfos((*pp)[:0])
	infos := m.filterHealthy(all)
	target := m.placeWritable(infos, m.policy().PlaceWrite(ctx, infos), n)
	*pp = all[:0]
	infoPool.Put(pp)
	return target
}

// placeWritable validates a policy placement against the chosen file
// system's own space accounting and advances to the next slower healthy
// tier when the FS cannot actually absorb n more bytes. infos is the
// tierInfos snapshot the policy placed with. TierInfo.Used is
// Mux's logical byte count; the FS is the authority on free space —
// journal regions, inode tables, and allocator metadata all eat into the
// device, so a watermark near 1.0 can admit a write the FS must refuse
// with ENOSPC. Asking the file system instead of second-guessing its
// layout is the contract this design is built on (§2.3). If no tier has
// room the original placement is returned and the write fails there.
func (m *Mux) placeWritable(infos []policy.TierInfo, target int, n int64) int {
	const headroom = 256 << 10 // per-decision metadata slack
	i := 0
	for ; i < len(infos) && infos[i].ID != target; i++ {
	}
	for ; i < len(infos); i++ {
		t, err := m.tier(infos[i].ID)
		if err != nil {
			continue
		}
		s, err := t.FS.Statfs()
		if err != nil || s.Available >= n+headroom {
			// An FS that cannot report free space keeps the placement;
			// the write path surfaces its error if it was actually full.
			return infos[i].ID
		}
	}
	return target
}

// filterHealthy drops quarantined tiers from a policy snapshot. With none
// quarantined — the steady state — infos itself is returned, so placement
// queries allocate nothing here. If every tier is quarantined the
// unfiltered list is returned too — writes must land somewhere, and a
// fully-quarantined hierarchy has no better option.
func (m *Mux) filterHealthy(infos []policy.TierInfo) []policy.TierInfo {
	for i := range infos {
		if !m.tierQuarantined(infos[i].ID) {
			continue
		}
		out := append(make([]policy.TierInfo, 0, len(infos)-1), infos[:i]...)
		for _, ti := range infos[i+1:] {
			if !m.tierQuarantined(ti.ID) {
				out = append(out, ti)
			}
		}
		if len(out) == 0 {
			return infos
		}
		return out
	}
	return infos
}

// TierUsage reports Mux's own accounting of allocated bytes per tier id.
func (m *Mux) TierUsage() map[int]int64 {
	out := map[int]int64{}
	for _, t := range m.tierTab.Load().live {
		out[t.ID] = t.used.Load()
	}
	return out
}

// SetPolicy swaps the tiering policy at runtime (§2.1: policies are
// user-registered and replaceable without remounting).
func (m *Mux) SetPolicy(p policy.Policy) {
	if p == nil {
		return
	}
	m.polP.Store(&p)
}

// policy returns the current tiering policy.
func (m *Mux) policy() policy.Policy {
	return *m.polP.Load()
}

// Policy returns the current tiering policy — muxsh and the autotune CLI
// inspect its name and tunable params.
func (m *Mux) Policy() policy.Policy { return m.policy() }

// scm returns the SCM cache controller, or nil when disabled.
func (m *Mux) scm() *cacheCtl {
	return m.scmP.Load()
}

// EnableSCMCache attaches an SCM cache (§2.5) backed by a preallocated
// cache file on the given tier, covering `bytes` of cache capacity.
func (m *Mux) EnableSCMCache(tierID int, bytes int64) error {
	t, err := m.tier(tierID)
	if err != nil {
		return err
	}
	ctl, err := newCacheCtl(t, bytes)
	if err != nil {
		return err
	}
	m.scmP.Store(ctl)
	return nil
}

// CacheStats reports SCM cache counters (zero stats when disabled).
func (m *Mux) CacheStats() CacheStats {
	scm := m.scm()
	if scm == nil {
		return CacheStats{}
	}
	return scm.Stats()
}

// OCC returns a snapshot of the OCC Synchronizer's counters.
func (m *Mux) OCC() OCCStats { return m.occ.snapshot() }

// SetMigrationInterleave installs a hook invoked after every optimistic
// copy round, before validation — a deterministic window for tests and the
// A1 ablation to inject racing user I/O. Pass nil to clear.
func (m *Mux) SetMigrationInterleave(fn func(round int)) { m.hookAfterCopy = fn }

// BLTStats reports the aggregate Block Lookup Table footprint: live files,
// total mapped runs, mapped bytes, and the approximate in-memory size of
// the tables (the §2.3 space-overhead claim, ablation A5).
func (m *Mux) BLTStats() (files, runs int, mappedBytes, tableBytes int64) {
	const runBytes = 24 // off, end, tier-id entry in the extent tree
	for _, f := range m.files.snapshot() {
		f.mu.Lock()
		files++
		runs += f.blt.Len()
		mappedBytes += f.blt.MappedBytes()
		f.mu.Unlock()
	}
	tableBytes = int64(runs) * runBytes
	return files, runs, mappedBytes, tableBytes
}

// Name identifies the instance.
func (m *Mux) Name() string { return m.name }

func (m *Mux) now() time.Duration { return m.clk.Now() }

// lookupFile resolves a path to its muxFile state — a single shared shard
// lock, no global serialization.
func (m *Mux) lookupFile(path string) (*muxFile, error) {
	info, err := m.ns.Lookup(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return nil, vfs.ErrIsDir
	}
	return info.File, nil
}

// Create makes a new regular file. The "host" file system — the policy's
// placement for its first byte — immediately gets the underlying sparse
// file and becomes the affinitive owner of all metadata (§2.3). The muxFile
// is built inside the namespace insert callback, under the shard lock, so
// no concurrent lookup ever observes the entry without its file state.
func (m *Mux) Create(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopCreate)

	if len(m.tierTab.Load().live) == 0 {
		return nil, vfs.Errf("create", m.name, path, ErrNoTiers)
	}
	host := -1
	e, err := m.ns.CreateFile(path, 0o644, 0, func(ino uint64) (*muxFile, error) {
		host = m.placeNew(policy.WriteCtx{Path: path, Off: 0, N: 0}, 0)
		nf := newMuxFile(ino, path, m.now(), host)
		m.files.put(ino, nf)
		return nf, nil
	})
	if err != nil {
		return nil, vfs.Errf("create", m.name, path, err)
	}
	f := e.File

	// Create the underlying sparse file on the host tier.
	if _, err := m.ensureHandle(f, host); err != nil {
		m.ns.Remove(path, nil)
		m.files.del(f.ino)
		return nil, vfs.Errf("create", m.name, path, err)
	}
	m.logCreate(f, host)
	return &handle{m: m, f: f}, nil
}

// Open opens an existing regular file.
func (m *Mux) Open(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopOpen)
	f, err := m.lookupFile(path)
	if err != nil {
		return nil, vfs.Errf("open", m.name, path, err)
	}
	return &handle{m: m, f: f}, nil
}

// Remove deletes a file (from every tier holding it) or an empty directory.
func (m *Mux) Remove(path string) error {
	path = vfs.CleanPath(path)
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopRemove)

	info, err := m.ns.Remove(path, nil)
	if err != nil {
		return vfs.Errf("remove", m.name, path, err)
	}
	f := info.File
	if f != nil {
		m.files.del(info.Ino)
		f.mu.Lock()
		var ids [maxTiersOnStack]int
		tiersHeld := f.appendTiers(ids[:0])
		perTier := f.bytesPerTier()
		f.closeHandlesLocked()
		f.mu.Unlock()
		for id, bytes := range perTier {
			m.tierRec(id).used.Add(-bytes)
		}
		if m.meta == nil {
			// No journal to order against: reclaim the tier files inline.
			for _, id := range tiersHeld {
				t, err := m.tier(id)
				if err != nil {
					continue
				}
				if rmErr := t.fs.Remove(path); rmErr != nil && !errors.Is(rmErr, vfs.ErrNotExist) {
					return vfs.Errf("remove", m.name, path, rmErr)
				}
			}
		}
		if scm := m.scm(); scm != nil {
			scm.RemoveFile(f.ino)
		}
		if m.meta != nil {
			// Tier-file destruction is deferred until the remove record
			// commits (reclaimPaths): removing first was a sweep-caught
			// crash window — a synchronous tier (novafs) destroys the data
			// durably while the rolled-back metadata still references it.
			m.metaAppendReclaim(path, fsrec.Op{Type: fsrec.OpRemove, Path: path})
			return nil
		}
	}
	m.logOp(fsrec.Op{Type: fsrec.OpRemove, Path: path})
	return nil
}

// Rename moves a file or directory, mirrored on every tier that has it.
// Cross-directory file renames lock the two parent shards in deterministic
// index order (fsbase.Namespace), so a↔b renames from two goroutines cannot
// deadlock.
func (m *Mux) Rename(oldPath, newPath string) error {
	oldPath, newPath = vfs.CleanPath(oldPath), vfs.CleanPath(newPath)
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopRename)

	// A just-removed newPath may still have its tier files, awaiting the
	// deferred reclaim: run it first, or the tier renames below would find
	// newPath taken.
	if err := m.settleReclaim(newPath); err != nil {
		return vfs.Errf("rename", m.name, oldPath, err)
	}
	info, moved, err := m.ns.Rename(oldPath, newPath, nil)
	if err != nil {
		return vfs.Errf("rename", m.name, oldPath, err)
	}

	// Commit the rename record BEFORE the tier-level renames: a synchronous
	// tier (novafs) makes its rename durable immediately, so renaming tiers
	// first opened a crash window where recovered metadata still used the
	// old path while the tier files sat at the new one — and the orphan
	// scrub would then delete them. With the record committed first, a crash
	// mid-way leaves tier files at the OLD path, and replay registers a
	// fixup (renameFix) that completeRenames finishes on the next remount.
	// m.Sync is FS-level (tier syncs + meta flush, no per-file handles), so
	// it cannot resurrect a tier file at either path.
	m.logOp(fsrec.Op{Type: fsrec.OpRename, Path: oldPath, Path2: newPath})
	repath(moved)
	if m.meta != nil {
		if err := m.Sync(); err != nil {
			return vfs.Errf("rename", m.name, oldPath, err)
		}
	}

	if f := info.File; f != nil {
		f.mu.Lock()
		var ids [maxTiersOnStack]int
		held := f.appendTiers(ids[:0])
		f.mu.Unlock()
		for _, id := range held {
			t, err := m.tier(id)
			if err != nil {
				continue
			}
			if mkErr := m.ensureDirs(t, newPath); mkErr != nil {
				return vfs.Errf("rename", m.name, newPath, mkErr)
			}
			if rnErr := t.fs.Rename(oldPath, newPath); rnErr != nil && !errors.Is(rnErr, vfs.ErrNotExist) {
				return vfs.Errf("rename", m.name, oldPath, rnErr)
			}
		}
	} else {
		// Directory: mirror on every tier that has it.
		for _, t := range m.Tiers() {
			if rnErr := t.fs.Rename(oldPath, newPath); rnErr != nil && !errors.Is(rnErr, vfs.ErrNotExist) {
				return vfs.Errf("rename", m.name, oldPath, rnErr)
			}
		}
	}
	return nil
}

// repath points every file a rename moved at its new path, for the live
// rename and its replay alike: the path snapshot is republished, and the
// downward handles, which cache the old path, close (bumping mapVer). It
// takes each f.mu in turn, so it runs after the namespace locks are
// released.
func repath(moved []fsbase.Moved[*muxFile]) {
	for _, mv := range moved {
		f := mv.File
		f.mu.Lock()
		f.path = mv.Path
		f.publishPath()
		f.closeHandlesLocked()
		f.mu.Unlock()
	}
}

// Mkdir creates a directory in the merged namespace; underlying tiers get
// it on demand when files are placed there.
func (m *Mux) Mkdir(path string) error {
	path = vfs.CleanPath(path)
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopMkdir)
	ino, err := m.ns.Mkdir(path, 0o755, nil)
	if err != nil {
		return vfs.Errf("mkdir", m.name, path, err)
	}
	m.logOp(fsrec.Op{Type: fsrec.OpMkdir, Ino: ino, Path: path, Mode: vfs.ModeDir | 0o755})
	return nil
}

// ReadDir lists the merged namespace.
func (m *Mux) ReadDir(path string) ([]vfs.DirEntry, error) {
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopReaddir)
	ents, err := m.ns.ReadDir(vfs.CleanPath(path))
	if err != nil {
		return nil, vfs.Errf("readdir", m.name, path, err)
	}
	return ents, nil
}

// Stat serves metadata from the collective inode — no downward calls, the
// point of caching attributes at the Mux layer (§2.3). The file path reads
// published snapshots only: no shard lock held past the lookup, no f.mu at
// all.
func (m *Mux) Stat(path string) (vfs.FileInfo, error) {
	path = vfs.CleanPath(path)
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopStat)
	info, err := m.ns.Lookup(path)
	if err != nil {
		return vfs.FileInfo{}, vfs.Errf("stat", m.name, path, err)
	}
	if info.IsDir() {
		return vfs.FileInfo{Path: path, Mode: info.Mode}, nil
	}
	f := info.File
	meta := f.loadMeta()
	fi := meta.Info(path)
	fi.Blocks = f.bltSnap.Load().MappedBytes()
	return fi, nil
}

// SetAttr updates the collective inode and queues lazy downward sync. Size
// changes fold into the same f.mu critical section as the attribute apply —
// one lock round-trip, not a nested Truncate call.
func (m *Mux) SetAttr(path string, attr vfs.SetAttr) error {
	path = vfs.CleanPath(path)
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopSetattr)
	info, err := m.ns.Lookup(path)
	if err != nil {
		return vfs.Errf("setattr", m.name, path, err)
	}
	if info.IsDir() {
		return vfs.Errf("setattr", m.name, path, vfs.ErrIsDir)
	}
	f := info.File

	if attr.Size != nil && *attr.Size < 0 {
		return vfs.Errf("truncate", m.name, path, vfs.ErrInvalid)
	}
	var newMode vfs.FileMode
	modeChanged := false
	f.mu.Lock()
	if attr.Size != nil {
		m.clk.Advance(m.costs.MetaOp) // the size change is its own namespace op
		if err := m.truncateLocked(f, *attr.Size); err != nil {
			f.mu.Unlock()
			return vfs.Errf("truncate", m.name, path, err)
		}
		attr.Size = nil
	}
	if f.meta.Apply(attr, m.now()) && attr.Mode != nil {
		newMode, modeChanged = f.meta.Mode, true
	}
	if attr.ATime != nil {
		f.atimeA.Store(int64(f.meta.ATime))
	}
	f.version++
	f.opsSinceSync++
	m.logOp(fsrec.Op{
		Type: fsrec.OpSetAttr, Ino: f.ino,
		Size: f.meta.Size, Mode: f.meta.Mode,
		MTime: f.meta.ModTime, ATime: time.Duration(f.atimeA.Load()), CTime: f.meta.CTime,
	})
	f.publishMeta()
	f.mu.Unlock()
	if modeChanged {
		// Shard lock taken after f.mu is released — never nested inside it.
		m.ns.SetFileMode(path, newMode)
	}
	return nil
}

// Truncate sets the file size by path.
func (m *Mux) Truncate(path string, size int64) error {
	fh, err := m.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return fh.Truncate(size)
}

// Statfs aggregates capacity across tiers — the metadata that "cannot have
// a single owner" (§2.3).
func (m *Mux) Statfs() (vfs.StatFS, error) {
	m.clk.Advance(m.costs.MetaOp)
	var out vfs.StatFS
	for _, t := range m.Tiers() {
		s, err := t.FS.Statfs()
		if err != nil {
			return vfs.StatFS{}, err
		}
		out.Capacity += s.Capacity
		out.Used += s.Used
		out.Available += s.Available
	}
	out.Files = m.ns.FileCount()
	return out, nil
}

// Sync persists every tier Mux has written since its last Sync (the tier
// barrier), then Mux's own metadata — ordered so committed Mux metadata
// never references data a tier lost.
func (m *Mux) Sync() error {
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopSync)
	if err := m.tierBarrier(nil); err != nil {
		return err
	}
	return m.metaFlush()
}

// Crash simulates power loss across the whole hierarchy: every tier that
// supports crash injection crashes, as does the Mux meta device.
func (m *Mux) Crash() {
	for _, t := range m.Tiers() {
		if cr, ok := t.FS.(vfs.CrashRecoverer); ok {
			cr.Crash()
		}
	}
	if m.meta != nil {
		m.meta.dev.Crash()
	}
}

// Recover rebuilds Mux state: each tier recovers itself first, then Mux
// replays its meta journal (which only ever commits after tier syncs).
// Recovery runs quiesced — no concurrent user ops, by the crash contract —
// so it may replace the namespace and inode table wholesale.
func (m *Mux) Recover() error {
	tierStart := time.Now()
	// Tier file systems live on independent devices and recover only their
	// own state, so their self-recovery runs on the recovery workers.
	tiers := m.Tiers()
	errs := make([]error, len(tiers))
	m.recoverEach(len(tiers), func(_, i int) {
		t := tiers[i]
		if cr, ok := t.FS.(vfs.CrashRecoverer); ok {
			if err := cr.Recover(); err != nil {
				errs[i] = fmt.Errorf("mux: tier %s recover: %w", t.FS.Name(), err)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	m.recStats = RecoveryStats{TierRecover: time.Since(tierStart)}
	if m.meta == nil {
		return nil
	}
	replayStart := time.Now()
	defer func() { m.recStats.Replay = time.Since(replayStart) }()
	// Pending (uncommitted) meta records describe pre-crash state that the
	// crash erased; committing them after recovery would interleave stale
	// history into the journal. Drop them, and mark the dropped span
	// resolved so no group-commit waiter stalls on records that will never
	// flush.
	ml := m.meta
	ml.mu.Lock()
	ml.pending.Reset()
	ml.reclaim = nil // stale deferred reclaims; the remount scrub recomputes
	ml.flushedSeq = ml.seq
	ml.lastErr = nil
	ml.mu.Unlock()

	m.renameFix = nil // rebuilt by replay below
	m.ns = fsbase.NewNamespace[*muxFile]()
	m.files = newInoTable()
	for _, t := range m.tierTab.Load().tiers {
		t.used.Store(0)
	}
	n, err := m.meta.replay(m)
	m.recStats.Records, m.recStats.Bytes = n, m.meta.jnl.UsedBytes()
	// Replay built its files unpublished and mutated their state directly;
	// publish every lock-free snapshot before user ops resume, after a
	// failed replay too, so the files it did build can be read.
	files := m.files.snapshot()
	m.recoverEach(len(files), func(_, i int) {
		f := files[i]
		f.mu.Lock()
		f.publishAll()
		f.mu.Unlock()
	})
	return err
}

// recoverEach runs fn(w, i) for every i in [0, n) — recovery's passes over
// independent items: tiers, files — on up to RecoveryWorkers goroutines; w
// is the worker's index, below recoveryWorkers(n). One worker runs the
// items in order on the calling goroutine (the E11 serial baseline).
func (m *Mux) recoverEach(n int, fn func(w, i int)) {
	workers := m.recoveryWorkers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// recoveryWorkers is how many goroutines recoverEach runs n items on:
// RecoveryWorkers, but no more than n and at least one.
func (m *Mux) recoveryWorkers(n int) int {
	return max(1, min(int(m.recWorkers.Load()), n))
}
