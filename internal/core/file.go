package core

import (
	"errors"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/extent"
	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fsbase"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// affinity records, per metadata attribute, the file system that holds the
// most up-to-date value — the paper's metadata affinity (§2.3). A value of
// -1 means no downward owner yet (Mux-only state). The atime owner lives
// outside this struct, in muxFile.affATime, because lock-free reads update
// it without f.mu.
type affinity struct {
	Size  int // tier owning the logical file size (holds the last byte)
	MTime int // tier that performed the last data update
}

// muxFile is the per-file bookkeeping state: the collective inode, the
// Block Lookup Table, the affinity table, and the OCC version counter.
//
// Two views coexist. Mutating ops hold f.mu and work on the plain fields;
// before releasing the lock they publish immutable snapshots (publishMeta /
// publishPath / publishBLT / publishHandles) into the atomic pointers.
// Lock-free readers — the single-extent read fast path, Stat, policy
// scans — load the snapshots and validate reads against mapVer, which bumps
// whenever the mapping or the handle cache changes meaning (BLT repoint or
// drop, handle close). In-place overwrites do NOT bump mapVer: a read
// racing an overlapping write may see a mix of old and new bytes, the same
// non-atomicity real file systems exhibit without range locks.
type muxFile struct {
	mu   sync.Mutex
	ino  uint64
	path string // guarded by mu; pathA is the published copy

	meta fsbase.Meta      // collective inode (cached attributes)
	blt  extent.Tree[int] // Block Lookup Table: offset range -> tier id
	aff  affinity
	// segs is scratch for BLT walks that call nothing else walking it
	// (AppendSegments into segs[:0]), so they allocate no per-op slice.
	segs []extent.Segment[int]

	// OCC Synchronizer state (§2.4).
	version   uint64
	migrating bool
	migDirty  extent.Tree[struct{}] // ranges written during the migration window

	handles map[int]vfs.File // open downward handles per tier
	onTiers map[int]bool     // tiers where the underlying sparse file exists

	// replica is the shadow-copy tier for §4-style replication (-1 = none).
	replica int
	// replicaDegraded marks a mirror that diverged after a failed mirror
	// write (replica tier fault). Fallback reads skip a degraded replica;
	// RepairFile or tier reintegration clears the mark after re-syncing.
	replicaDegraded bool

	opsSinceSync int // lazy metadata sync counter

	// Published snapshots — stored under f.mu, loaded without it. The
	// size and mtime a write changes publish as atomics, without a copy;
	// metaSnap holds the rest of the attributes (loadMeta joins them).
	pathA      atomic.Pointer[string]
	sizeA      atomic.Int64
	mtimeA     atomic.Int64
	metaSnap   atomic.Pointer[fsbase.Meta]
	bltSnap    atomic.Pointer[extent.Tree[int]]
	handleSnap atomic.Pointer[map[int]vfs.File]
	// mapVer versions the (BLT, handles) pair for the OCC read recheck.
	mapVer atomic.Uint64

	// Lock-free per-read bookkeeping: heat (float64 bits), last access,
	// atime, and the atime affinity owner (§2.3).
	heatBits    atomic.Uint64
	lastAccessA atomic.Int64
	atimeA      atomic.Int64
	affATime    atomic.Int32

	// routableReplica publishes the mirror tier the read router may dispatch
	// to: -1 when the file is unreplicated or the mirror is degraded, else
	// f.replica. Stored under f.mu via publishReplica, loaded lock-free on
	// the read hot path (route.go).
	routableReplica atomic.Int32

	// Router bookkeeping, surfaced by Mux.Replicas / muxsh replicas:
	// routing decisions made for this file, how many the mirror served, how
	// many error-path fallbacks the mirror served, and the tier of the last
	// routing decision (-1 = none yet).
	routedReads   atomic.Int64
	mirrorHits    atomic.Int64
	fallbackReads atomic.Int64
	lastRoute     atomic.Int32
}

func newMuxFile(ino uint64, path string, now time.Duration, host int) *muxFile {
	f := unpublishedFile(ino, path, now, host)
	f.publishAll()
	return f
}

// unpublishedFile is newMuxFile without the published snapshots, which
// lock-free readers load: replay builds its files this way, and Recover
// publishes each once, after replay.
func unpublishedFile(ino uint64, path string, now time.Duration, host int) *muxFile {
	f := &muxFile{
		ino:     ino,
		path:    path,
		meta:    fsbase.Meta{Mode: 0o644, ModTime: now, ATime: now, CTime: now},
		aff:     affinity{Size: host, MTime: host},
		handles: map[int]vfs.File{},
		onTiers: map[int]bool{},
		replica: -1,
	}
	f.affATime.Store(int32(host))
	f.atimeA.Store(int64(now))
	f.lastRoute.Store(-1)
	return f
}

// --- snapshot publication; all callers hold f.mu -------------------------

func (f *muxFile) publishMeta() {
	meta := f.meta
	f.metaSnap.Store(&meta)
	f.publishSizeTime()
}

// publishSizeTime publishes the size and mtime alone: all a write changes.
func (f *muxFile) publishSizeTime() {
	f.sizeA.Store(f.meta.Size)
	f.mtimeA.Store(int64(f.meta.ModTime))
}

// loadMeta returns the published attributes without taking f.mu.
func (f *muxFile) loadMeta() fsbase.Meta {
	meta := *f.metaSnap.Load()
	meta.Size = f.sizeA.Load()
	meta.ModTime = time.Duration(f.mtimeA.Load())
	meta.ATime = time.Duration(f.atimeA.Load())
	return meta
}

func (f *muxFile) publishPath() {
	p := f.path
	f.pathA.Store(&p)
}

// publishBLT snapshots the mapping and invalidates in-flight lock-free
// reads. Every repoint/drop goes through here, so a reader whose bytes came
// from a stale mapping always fails its mapVer recheck.
func (f *muxFile) publishBLT() {
	f.bltSnap.Store(f.blt.Clone())
	f.mapVer.Add(1)
}

// noHandles is the published handle snapshot of every file without an
// open downward handle. Readers only index a snapshot, so one empty map
// serves them all.
var noHandles = map[int]vfs.File{}

// publishHandles snapshots the downward handle cache. It does not bump
// mapVer: adding a handle invalidates nothing.
func (f *muxFile) publishHandles() {
	if len(f.handles) == 0 {
		f.handleSnap.Store(&noHandles)
		return
	}
	hs := make(map[int]vfs.File, len(f.handles))
	for id, h := range f.handles {
		hs[id] = h
	}
	f.handleSnap.Store(&hs)
}

// publishReplica derives the routable-replica mark from the replica fields:
// only a non-degraded mirror may serve routed reads.
func (f *muxFile) publishReplica() {
	rt := int32(-1)
	if f.replica >= 0 && !f.replicaDegraded {
		rt = int32(f.replica)
	}
	f.routableReplica.Store(rt)
}

func (f *muxFile) publishAll() {
	f.publishMeta()
	f.publishPath()
	f.publishBLT()
	f.publishHandles()
	f.publishReplica()
	f.atimeA.Store(int64(f.meta.ATime))
}

// loadPath returns the published path without taking f.mu (error messages,
// policy scans).
func (f *muxFile) loadPath() string { return *f.pathA.Load() }

// --- lock-free heat/access bookkeeping -----------------------------------

func (f *muxFile) heatLoad() float64 { return math.Float64frombits(f.heatBits.Load()) }

func (f *muxFile) heatAdd(d float64) {
	for {
		old := f.heatBits.Load()
		if f.heatBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (f *muxFile) heatScale(k float64) {
	for {
		old := f.heatBits.Load()
		if f.heatBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)*k)) {
			return
		}
	}
}

// maxTiersOnStack sizes the stack array a tier walk collects into; a file
// on more tiers grows it onto the heap.
const maxTiersOnStack = 8

// appendTiers appends the ids of the tiers holding the file (onTiers and
// the BLT), each once, to dst. Caller holds f.mu.
func (f *muxFile) appendTiers(dst []int) []int {
	base := len(dst)
	for id, ok := range f.onTiers {
		if ok && !slices.Contains(dst[base:], id) {
			dst = append(dst, id)
		}
	}
	f.blt.Walk(func(_, _ int64, tier int) bool {
		if !slices.Contains(dst[base:], tier) {
			dst = append(dst, tier)
		}
		return true
	})
	return dst
}

// bytesPerTier sums mapped bytes per tier. Caller holds f.mu.
func (f *muxFile) bytesPerTier() map[int]int64 {
	out := map[int]int64{}
	f.blt.Walk(func(_, n int64, tier int) bool {
		out[tier] += n
		return true
	})
	return out
}

// closeHandlesLocked closes and clears all downward handles, invalidating
// lock-free reads that captured one of them. Caller holds f.mu.
func (f *muxFile) closeHandlesLocked() {
	for _, h := range f.handles {
		h.Close()
	}
	f.handles = map[int]vfs.File{}
	f.publishHandles()
	f.mapVer.Add(1)
}

// ensureHandle returns an open downward handle on tier id, creating the
// underlying sparse file (and its parent directories) on first touch.
func (m *Mux) ensureHandle(f *muxFile, id int) (vfs.File, error) {
	t, err := m.tier(id)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return m.ensureHandleLocked(f, t)
}

// ensureHandleLocked is ensureHandle for callers holding f.mu.
func (m *Mux) ensureHandleLocked(f *muxFile, t *Tier) (vfs.File, error) {
	if h, ok := f.handles[t.ID]; ok {
		return h, nil
	}
	h, err := t.fs.Open(f.path)
	if errors.Is(err, vfs.ErrNotExist) {
		if mkErr := m.ensureDirs(t, f.path); mkErr != nil {
			return nil, mkErr
		}
		h, err = t.fs.Create(f.path)
		if errors.Is(err, vfs.ErrExist) {
			h, err = t.fs.Open(f.path)
		}
	}
	if err != nil {
		return nil, err
	}
	f.handles[t.ID] = h
	f.onTiers[t.ID] = true
	f.publishHandles()
	return h, nil
}

// ensureDirs replicates the parent directory chain of path onto tier t.
func (m *Mux) ensureDirs(t *Tier, path string) error {
	dir, _ := vfs.ParentPath(path)
	if vfs.IsRoot(dir) {
		return nil
	}
	segs := vfs.SplitPath(dir)
	cur := ""
	for _, seg := range segs {
		cur += "/" + seg
		if err := t.fs.Mkdir(cur); err != nil && !errors.Is(err, vfs.ErrExist) {
			return err
		}
	}
	return nil
}

// bltRepoint remaps [off, off+n) to tier, maintaining per-tier usage
// accounting and republishing the mapping. Caller holds f.mu.
func (m *Mux) bltRepoint(f *muxFile, off, n int64, tier int) {
	m.bltRemap(f, off, n, tier)
	f.publishBLT()
}

// bltRemap is bltRepoint without the publish, for replay: Recover
// publishes every file once after it.
func (m *Mux) bltRemap(f *muxFile, off, n int64, tier int) {
	m.bltUnaccount(f, off, n)
	f.blt.Insert(off, n, tier)
	m.tierRec(tier).used.Add(n)
}

// bltDrop unmaps [off, off+n), maintaining accounting and republishing.
// Caller holds f.mu.
func (m *Mux) bltDrop(f *muxFile, off, n int64) {
	m.bltUnmap(f, off, n)
	f.publishBLT()
}

// bltUnmap is bltDrop without the publish.
func (m *Mux) bltUnmap(f *muxFile, off, n int64) {
	m.bltUnaccount(f, off, n)
	f.blt.Delete(off, n)
}

// bltUnaccount takes the bytes mapped in [off, off+n) off their tiers'
// usage.
func (m *Mux) bltUnaccount(f *muxFile, off, n int64) {
	f.segs = f.blt.AppendSegments(f.segs[:0], off, n)
	for _, seg := range f.segs {
		if !seg.Hole {
			m.tierRec(seg.Val).used.Add(-seg.Len)
		}
	}
}

// handle is the upward vfs.File Mux hands to applications.
type handle struct {
	m      *Mux
	f      *muxFile
	closed bool
}

var _ vfs.File = (*handle)(nil)

// Path returns the file's current path.
func (h *handle) Path() string {
	return h.f.loadPath()
}

// Close releases the upward handle (downward handles stay cached on the
// muxFile for other handles).
func (h *handle) Close() error {
	h.closed = true
	return nil
}

func (h *handle) check() error {
	if h.closed {
		return vfs.ErrClosed
	}
	return nil
}

// touchRead books one read: atime, heat, and the atime affinity owner
// (§2.3) — the owner is rewritten only when it actually moved, so
// steady-state reads from one tier don't ping a shared cache line every op.
// Entirely atomic; callable with or without f.mu.
func (f *muxFile) touchRead(now time.Duration, lastTier int) {
	f.atimeA.Store(int64(now))
	if lastTier >= 0 && f.affATime.Load() != int32(lastTier) {
		f.affATime.Store(int32(lastTier))
	}
	f.heatAdd(1)
	f.lastAccessA.Store(int64(now))
}

// ReadAt books per-tenant attribution (tenant.go) around the multiplexed
// read path. With no tenants registered — the common case, and all of
// E1–E13 — the gate is one atomic nil load and readAt runs unchanged, so
// the E9 overhead budget is untouched. With a matching tenant, the op
// books counters plus the VIRTUAL-time latency delta (deterministic under
// simclock; concurrent drivers share the clock, so attribute latency from
// single-driver phases when exactness matters).
func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	ts := h.m.tenantFor(h.f.loadPath())
	if ts == nil {
		return h.readAt(p, off)
	}
	start := h.m.clk.Now()
	n, err := h.readAt(p, off)
	ts.bookRead(int64(h.m.clk.Now()-start), n, err)
	return n, err
}

// readAt is the multiplexed read path: BLT lookup, split by tier, dispatch
// downward, merge results (§2.2). The tier serving the last block becomes
// the atime owner (§2.3).
//
// A request fully inside one mapped extent — the overwhelmingly common case
// E3 and E8 measure — runs entirely lock-free: it reads the published
// size/BLT/handle snapshots, issues the downward read, and then rechecks
// mapVer (OCC). If a migration repointed the extent, a truncate dropped it,
// or a rename closed the handle while the read was in flight, the recheck
// fails and the op retries, falling back to the locked path. Bookkeeping
// (atime, heat, affinity owner) is atomic, so a cached read never touches
// f.mu and never convoys behind a writer holding it across governed device
// time.
func (h *handle) readAt(p []byte, off int64) (int, error) {
	m := h.m
	f := h.f
	if err := h.check(); err != nil {
		return 0, vfs.Errf("read", m.name, f.loadPath(), err)
	}
	m.clk.Advance(m.costs.DispatchOp + m.costs.BLTLookup + m.costs.OCCCheck)
	if off < 0 {
		return 0, vfs.Errf("read", m.name, f.loadPath(), vfs.ErrInvalid)
	}

	// Lock-free fast path with OCC-version recheck.
	for attempt := 0; attempt < 2; attempt++ {
		ver := f.mapVer.Load()
		size := f.sizeA.Load()
		if off >= size {
			return 0, io.EOF
		}
		n := int64(len(p))
		short := false
		if off+n > size {
			n = size - off
			short = true
		}
		blt := f.bltSnap.Load()
		tid, seg, ok := blt.Lookup(off)
		if !ok || seg.End() < off+n {
			break // spans holes or tiers: locked path
		}
		dh := (*f.handleSnap.Load())[tid]
		if dh == nil {
			break // no cached downward handle yet: locked path opens one
		}
		// The handle was opened on a resolved tier, and a tier's record
		// outlives its removal, so the lookup cannot miss.
		err := m.readSegment(f, m.scm(), dh, m.tierRec(tid), p[:n], off, false)
		if f.mapVer.Load() != ver {
			continue // mapping moved mid-read; bytes may be stale — retry
		}
		if err != nil {
			return 0, vfs.Errf("read", m.name, f.loadPath(), err)
		}
		f.touchRead(m.now(), tid)
		if short {
			return int(n), io.EOF
		}
		return int(n), nil
	}

	// Locked paths: same OCC recheck, bounded. The last attempt reads with
	// f.mu held, which no migration can race: its commit needs f.mu and
	// reclaimSource punches only after the commit.
	for attempt := 0; ; attempt++ {
		n, stale, err := m.readLocked(f, p, off, attempt == lockedReadRetries)
		if stale {
			continue
		}
		if err != nil && err != io.EOF {
			return 0, vfs.Errf("read", m.name, f.loadPath(), err)
		}
		return n, err
	}
}

// lockedReadRetries is how many locked read attempts run their downward
// reads without f.mu before the final attempt holds it throughout.
const lockedReadRetries = 2

// readLocked is one attempt of the locked read paths. Under f.mu it clamps
// the request to the file size, resolves it in the BLT, and captures
// mapVer; the downward reads then run without f.mu unless hold is set. A
// migration can commit in that window and reclaimSource punch the source,
// so the read may return punched zeros: stale reports that mapVer moved and
// the bytes in p must be discarded. io.EOF marks a read short of len(p) (n
// bytes valid); other errors come from the tiers, unwrapped.
func (m *Mux) readLocked(f *muxFile, p []byte, off int64, hold bool) (n int, stale bool, err error) {
	f.mu.Lock()
	if off >= f.meta.Size {
		f.mu.Unlock()
		return 0, false, io.EOF
	}
	ln := int64(len(p))
	var eof error
	if off+ln > f.meta.Size {
		ln = f.meta.Size - off
		eof = io.EOF
	}
	ver, scm := f.mapVer.Load(), m.scm()
	var now time.Duration // read time for atime/heat, taken before dispatch
	var lastTier int

	// Single-extent path: one mapped extent, but the lock-free attempt could
	// not run (no cached handle, or it kept losing the OCC race).
	if tid, seg, ok := f.blt.Lookup(off); ok && seg.End() >= off+ln {
		t, dh, herr := m.handleLocked(f, tid)
		if herr != nil {
			f.mu.Unlock()
			return 0, false, herr
		}
		now = m.now()
		if !hold {
			f.mu.Unlock()
		}
		err = m.readSegment(f, scm, dh, t, p[:ln], off, hold)
		lastTier = tid
	} else {
		pp := getPlan()
		plan := *pp
		lastTier = -1
		f.segs = f.blt.AppendSegments(f.segs[:0], off, ln)
		for _, seg := range f.segs {
			if seg.Hole {
				clear(p[seg.Off-off : seg.Off-off+seg.Len])
				continue
			}
			t, dh, herr := m.handleLocked(f, seg.Val)
			if herr != nil {
				f.mu.Unlock()
				putPlan(pp)
				return 0, false, herr
			}
			plan = append(plan, ioSeg{h: dh, t: t, off: seg.Off, ln: seg.Len, bufStart: seg.Off - off})
			lastTier = seg.Val
		}
		now = m.now()
		if !hold {
			f.mu.Unlock()
		}
		// Downward reads go through each tier's health tracker (health.go):
		// transient faults retry with backoff, a quarantined tier fails
		// fast, and a failed segment read retries against the replica, if
		// one exists (§4). Segment groups on distinct tiers dispatch
		// concurrently (fanout.go).
		err = fanout(m, plan, readSegs{f: f, scm: scm, p: p, held: hold})
		*pp = plan
		putPlan(pp)
	}
	if hold {
		f.mu.Unlock()
	} else if f.mapVer.Load() != ver {
		return 0, true, nil
	}
	f.touchRead(now, lastTier)
	if err != nil {
		return 0, false, err
	}
	return int(ln), false, eof
}

// handleLocked returns tier id and the open downward handle of file f on
// it. Caller holds f.mu.
func (m *Mux) handleLocked(f *muxFile, id int) (*Tier, vfs.File, error) {
	t, err := m.tier(id)
	if err != nil {
		return nil, nil, err
	}
	h, err := m.ensureHandleLocked(f, t)
	return t, h, err
}

// WriteAt books per-tenant attribution around the multiplexed write path,
// mirroring ReadAt's gate: one atomic nil load when no tenants exist.
func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	ts := h.m.tenantFor(h.f.loadPath())
	if ts == nil {
		return h.writeAt(p, off)
	}
	start := h.m.clk.Now()
	n, err := h.writeAt(p, off)
	ts.bookWrite(int64(h.m.clk.Now()-start), n, err)
	return n, err
}

// writeAt is the multiplexed write path: holes get a placement from the
// Policy Runner, mapped ranges are overwritten in place on their current
// tier, and the BLT + affinity are updated (§2.2, §2.3). A write fully
// inside one mapped extent on a healthy tier takes a fast path that skips
// the plan and the BLT repoint (the mapping cannot change); a write
// spanning several tiers fans the per-tier groups out concurrently
// (fanout.go), repointing exactly the segments whose device write landed.
// f.mu is held across the device dispatch deliberately: it is what makes a
// write atomic against migration validation (§2.4).
func (h *handle) writeAt(p []byte, off int64) (int, error) {
	m := h.m
	if err := h.check(); err != nil {
		return 0, vfs.Errf("write", m.name, h.f.loadPath(), err)
	}
	if off < 0 {
		return 0, vfs.Errf("write", m.name, h.f.loadPath(), vfs.ErrInvalid)
	}
	if len(p) == 0 {
		return 0, nil
	}
	n := int64(len(p))
	blocks := (off+n-1)/BlockSize - off/BlockSize + 1
	m.clk.Advance(m.costs.DispatchOp + m.costs.OCCCheck + time.Duration(blocks)*m.costs.BLTUpdate)

	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()

	// Fast path: the whole write overwrites one mapped extent in place on a
	// healthy tier. No plan, no repoint — the mapping is already correct.
	if tid, seg, ok := f.blt.Lookup(off); ok && seg.End() >= off+n && !m.tierQuarantined(tid) {
		t, dh, err := m.handleLocked(f, tid)
		if err != nil {
			return 0, vfs.Errf("write", m.name, f.path, err)
		}
		if err := m.writeSegment(dh, t, f.path, p, off); err != nil {
			return 0, vfs.Errf("write", m.name, f.path, err)
		}
		if scm := m.scm(); scm != nil {
			scm.invalidate(f.ino, off, n)
		}
		m.writeEpilogueLocked(f, p, off, n, tid)
		return int(n), nil
	}

	// Build the per-tier write plan: mapped segments stay on their tier,
	// holes go where the policy says. Segments mapped on a quarantined tier
	// are treated like holes — the write is redirected to a healthy
	// placement and the BLT repointed, so a sick tier drains as its blocks
	// are overwritten (health.go).
	target := -1
	pp := getPlan()
	plan := *pp
	f.segs = f.blt.AppendSegments(f.segs[:0], off, n)
	for _, seg := range f.segs {
		tier := seg.Val
		if seg.Hole || m.tierQuarantined(tier) {
			if target == -1 {
				target = m.placeNew(policy.WriteCtx{
					Path: f.path, Off: off, N: n, FileSize: f.meta.Size,
				}, n)
			}
			tier = target
		}
		if last := len(plan) - 1; last >= 0 && plan[last].t.ID == tier && plan[last].off+plan[last].ln == seg.Off {
			plan[last].ln += seg.Len
			continue
		}
		t, dh, err := m.handleLocked(f, tier)
		if err != nil {
			*pp = plan
			putPlan(pp)
			return 0, vfs.Errf("write", m.name, f.path, err)
		}
		plan = append(plan, ioSeg{h: dh, t: t, off: seg.Off, ln: seg.Len, bufStart: seg.Off - off})
	}

	// Dispatch: per-tier groups run concurrently when the plan spans more
	// than one tier (fanout.go). Every segment whose device write landed is
	// repointed — even on partial failure, so the BLT reflects what the
	// devices now hold.
	done := make([]bool, len(plan))
	werr := fanout(m, plan, writeSegs{path: f.path, p: p, done: done})
	lastTier := -1
	scm := m.scm()
	for i := range plan {
		if !done[i] {
			continue
		}
		s := &plan[i]
		m.bltRepoint(f, s.off, s.ln, s.t.ID)
		if scm != nil {
			scm.invalidate(f.ino, s.off, s.ln)
		}
		lastTier = s.t.ID
	}
	*pp = plan
	putPlan(pp)
	if werr != nil {
		return 0, vfs.Errf("write", m.name, f.path, werr)
	}

	m.writeEpilogueLocked(f, p, off, n, lastTier)
	return int(n), nil
}

// writeEpilogueLocked books one successful write: replica mirror, collective
// inode, affinity owners, heat, OCC version, write-ahead log, and lazy
// metadata sync. Caller holds f.mu.
func (m *Mux) writeEpilogueLocked(f *muxFile, p []byte, off, n int64, lastTier int) {
	if err := m.mirrorWriteLocked(f, p, off); err != nil {
		// The mirror diverged, not the authoritative write: degrade the
		// replica (fallback reads skip it, routed reads stop targeting it,
		// RepairFile or reintegration re-syncs it) instead of failing the
		// user op. fsync still fans out to the replica tier and surfaces the
		// loss of durable redundancy.
		f.replicaDegraded = true
		m.logReplica(f)
		f.publishReplica()
	}

	now := m.now()
	if off+n > f.meta.Size {
		f.meta.Size = off + n
		f.aff.Size = lastTier // tier that allocated the last block owns size
	}
	f.meta.ModTime = now
	f.aff.MTime = lastTier // tier that performed the last update owns mtime
	f.heatAdd(1)
	f.lastAccessA.Store(int64(now))

	// OCC bookkeeping: every write bumps the version; writes during a
	// migration window are recorded for conflict detection (§2.4).
	f.version++
	if f.migrating {
		f.migDirty.Insert(off, n, struct{}{})
	}

	f.publishSizeTime()
	m.logBLTRange(f, off, n)
	f.opsSinceSync++
	if f.opsSinceSync >= m.syncEvery {
		m.metaSyncLocked(f)
	}
}

// metaSyncLocked lazily pushes collective-inode attributes down to the
// affinitive owner (§2.3) — or, in the SyncAllMeta ablation mode, writes
// them through to every participating file system. Caller holds f.mu.
func (m *Mux) metaSyncLocked(f *muxFile) {
	f.opsSinceSync = 0
	size, mt := f.meta.Size, f.meta.ModTime
	attr := vfs.SetAttr{Size: &size, ModTime: &mt}
	if m.syncAll {
		var ids [maxTiersOnStack]int
		for _, id := range f.appendTiers(ids[:0]) {
			if t, err := m.tier(id); err == nil {
				_ = t.fs.SetAttr(f.path, attr)
			}
		}
		return
	}
	owner := f.aff.Size
	if owner < 0 {
		return
	}
	t, err := m.tier(owner)
	if err != nil {
		return
	}
	// Downward SetAttr on the owner keeps the sparse file's metadata
	// current without touching the other participating file systems.
	_ = t.fs.SetAttr(f.path, attr)
}

// Truncate shrinks or grows the logical size across all tiers.
func (h *handle) Truncate(size int64) error {
	m := h.m
	if err := h.check(); err != nil {
		return vfs.Errf("truncate", m.name, h.f.loadPath(), err)
	}
	if size < 0 {
		return vfs.Errf("truncate", m.name, h.f.loadPath(), vfs.ErrInvalid)
	}
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopTruncate)

	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := m.truncateLocked(f, size); err != nil {
		return vfs.Errf("truncate", m.name, f.path, err)
	}
	return nil
}

// truncateLocked is the shared truncate body (handle.Truncate and the size
// branch of Mux.SetAttr — one f.mu round-trip each). Caller holds f.mu and
// has validated size >= 0.
//
// Shrinks invalidate the published mapping and size BEFORE the device
// truncates run: a lock-free reader racing the shrink must fail its mapVer
// recheck rather than observe device-zeroed blocks under a stable mapping.
func (m *Mux) truncateLocked(f *muxFile, size int64) error {
	now := m.now()
	shrink := size < f.meta.Size
	if shrink {
		oldSize := f.meta.Size
		var ids [maxTiersOnStack]int
		held := f.appendTiers(ids[:0])
		m.bltDrop(f, size, oldSize-size) // publishes + bumps mapVer
		if scm := m.scm(); scm != nil {
			scm.invalidate(f.ino, size, oldSize-size)
		}
		f.meta.Size = size
		f.meta.ModTime = now
		f.meta.CTime = now
		f.publishMeta()
		if m.meta == nil {
			// No journal to order against: truncate the underlying sparse
			// file on every tier inline.
			for _, id := range held {
				t, err := m.tier(id)
				if err != nil {
					continue
				}
				dh, err := m.ensureHandleLocked(f, t)
				if err != nil {
					return err
				}
				if err := dh.Truncate(size); err != nil {
					return err
				}
			}
		}
	} else {
		f.meta.Size = size
		f.meta.ModTime = now
		f.meta.CTime = now
		f.publishMeta()
	}
	f.version++
	f.opsSinceSync++
	if m.meta != nil && shrink {
		// Tier-side extent destruction is deferred until the truncate
		// record commits (reclaimPaths): a synchronous tier frees the
		// blocks durably at once, so truncating before the record was
		// durable let a crash roll the size back while the data was
		// already gone. The deferred reclaim subtracts the CURRENT
		// reference set, so a re-extending write in the meantime keeps
		// every block it mapped.
		m.metaAppendReclaim(f.path,
			fsrec.Op{Type: fsrec.OpTruncate, Ino: f.ino, Size: size, MTime: f.meta.ModTime})
	} else {
		m.logOp(fsrec.Op{Type: fsrec.OpTruncate, Ino: f.ino, Size: size, MTime: f.meta.ModTime})
	}
	return nil
}

// Sync fans fsync out to every file system responsible for the file (§4)
// and then commits Mux's own metadata. With more than one participating
// file system the downward fsyncs run concurrently (fanout.go), each
// through its tier's health tracker.
func (h *handle) Sync() error {
	m := h.m
	if err := h.check(); err != nil {
		return vfs.Errf("sync", m.name, h.f.loadPath(), err)
	}
	m.clk.Advance(m.costs.DispatchOp)
	m.telMetaOp(mopSync)

	f := h.f
	f.mu.Lock()
	pp := getPlan()
	defer putPlan(pp)
	var ids [maxTiersOnStack]int
	for _, id := range f.appendTiers(ids[:0]) {
		t, err := m.tier(id)
		if err != nil {
			continue
		}
		dh, err := m.ensureHandleLocked(f, t)
		if err != nil {
			f.mu.Unlock()
			return vfs.Errf("sync", m.name, f.path, err)
		}
		*pp = append(*pp, ioSeg{h: dh, t: t})
	}
	m.metaSyncLocked(f)
	f.mu.Unlock()

	if err := m.fanoutSync(f.loadPath(), *pp); err != nil {
		return vfs.Errf("sync", m.name, f.loadPath(), err)
	}
	return m.metaFlush()
}

// Stat serves the collective inode from the published snapshots — no locks.
func (h *handle) Stat() (vfs.FileInfo, error) {
	if err := h.check(); err != nil {
		return vfs.FileInfo{}, vfs.Errf("stat", h.m.name, h.f.loadPath(), err)
	}
	h.m.clk.Advance(h.m.costs.MetaOp)
	f := h.f
	meta := f.loadMeta()
	fi := meta.Info(f.loadPath())
	fi.Blocks = f.bltSnap.Load().MappedBytes()
	return fi, nil
}

// Extents lists the mapped runs of the BLT merged in file order.
func (h *handle) Extents() ([]vfs.Extent, error) {
	if err := h.check(); err != nil {
		return nil, vfs.Errf("extents", h.m.name, h.f.loadPath(), err)
	}
	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []vfs.Extent
	f.blt.Walk(func(off, n int64, _ int) bool {
		if len(out) > 0 && out[len(out)-1].End() == off {
			out[len(out)-1].Len += n
		} else {
			out = append(out, vfs.Extent{Off: off, Len: n})
		}
		return true
	})
	return out, nil
}

// PunchHole forwards the punch to each tier mapped in the range and drops
// the BLT entries. Whole blocks leave the published mapping before the
// device punches run, for the same lock-free-reader reason as truncate;
// ragged edges stay mapped and are zeroed in place (a racing lock-free read
// of those edges sees old bytes or zeros, like any racing overwrite).
func (h *handle) PunchHole(off, n int64) error {
	m := h.m
	if err := h.check(); err != nil {
		return vfs.Errf("punch", m.name, h.f.loadPath(), err)
	}
	if off < 0 || n < 0 {
		return vfs.Errf("punch", m.name, h.f.loadPath(), vfs.ErrInvalid)
	}
	if n == 0 {
		return nil
	}
	m.clk.Advance(m.costs.MetaOp)
	m.telMetaOp(mopPunch)

	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + n
	if end > f.meta.Size {
		end = f.meta.Size
	}
	if end <= off {
		return nil
	}
	// Collect the tiers mapped within the range before dropping the map
	// (only the journal-less inline path needs them).
	seen := map[int]bool{}
	if m.meta == nil {
		for _, seg := range f.blt.Segments(off, end-off) {
			if seg.Hole || seen[seg.Val] {
				continue
			}
			seen[seg.Val] = true
		}
		if f.replica >= 0 {
			seen[f.replica] = true
		}
	}
	// Whole blocks leave the BLT; ragged edges stay mapped (the underlying
	// punch zeroes them in place).
	firstWhole := (off + BlockSize - 1) / BlockSize * BlockSize
	lastWhole := end / BlockSize * BlockSize
	if lastWhole > firstWhole {
		m.bltDrop(f, firstWhole, lastWhole-firstWhole)
	}
	if scm := m.scm(); scm != nil {
		scm.invalidate(f.ino, off, end-off)
	}
	if m.meta == nil {
		// No journal to order against: punch every mapped tier inline.
		for id := range seen {
			t, err := m.tier(id)
			if err != nil {
				continue
			}
			dh, err := m.ensureHandleLocked(f, t)
			if err != nil {
				return vfs.Errf("punch", m.name, f.path, err)
			}
			if err := dh.PunchHole(off, end-off); err != nil {
				return vfs.Errf("punch", m.name, f.path, err)
			}
		}
	} else {
		// Whole-block reclaim on the authoritative tiers is deferred until
		// the punch record commits (metaAppendReclaim below) — destroying
		// durably-punchable tier blocks before the record was durable was a
		// sweep-caught crash window. Two things still happen inline:
		//
		//   - the mirror is punched in full, so live fallback reads never
		//     see stale bytes; a crash that rolls the record back merely
		//     leaves a diverged mirror, which the scrub's verify pass
		//     repairs;
		//   - ragged edges are zeroed in place on their owning tiers —
		//     they stay mapped, so this has in-place-overwrite crash
		//     semantics (old bytes or zeros), like any racing write.
		if f.replica >= 0 {
			if t, err := m.tier(f.replica); err == nil {
				rh, err := m.ensureHandleLocked(f, t)
				if err != nil {
					return vfs.Errf("punch", m.name, f.path, err)
				}
				if err := rh.PunchHole(off, end-off); err != nil {
					return vfs.Errf("punch", m.name, f.path, err)
				}
			}
		}
		var ragged []vfs.Extent
		if firstWhole >= lastWhole {
			ragged = []vfs.Extent{{Off: off, Len: end - off}} // inside one block
		} else {
			if off < firstWhole {
				ragged = append(ragged, vfs.Extent{Off: off, Len: firstWhole - off})
			}
			if lastWhole < end {
				ragged = append(ragged, vfs.Extent{Off: lastWhole, Len: end - lastWhole})
			}
		}
		for _, rr := range ragged {
			for _, seg := range f.blt.Segments(rr.Off, rr.Len) {
				if seg.Hole {
					continue
				}
				t, err := m.tier(seg.Val)
				if err != nil {
					continue
				}
				dh, err := m.ensureHandleLocked(f, t)
				if err != nil {
					return vfs.Errf("punch", m.name, f.path, err)
				}
				if err := dh.PunchHole(seg.Off, seg.Len); err != nil {
					return vfs.Errf("punch", m.name, f.path, err)
				}
			}
		}
	}
	now := m.now()
	f.meta.ModTime = now
	f.meta.CTime = now
	f.version++
	f.opsSinceSync++
	f.publishMeta()
	if m.meta != nil {
		m.metaAppendReclaim(f.path,
			fsrec.Op{Type: fsrec.OpPunch, Ino: f.ino, Off: off, N: end - off, MTime: f.meta.ModTime})
	}
	return nil
}
