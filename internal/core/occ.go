package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/extent"
	"muxfs/internal/vfs"
)

// migrateChunk is the copy buffer size for data movement.
const migrateChunk = 256 * 1024

// copyBufPool recycles serial-copy buffers so single-worker migration
// rounds don't allocate migrateChunk per call.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, migrateChunk)
		return &b
	},
}

// OCCStats counts OCC Synchronizer activity (§2.4).
type OCCStats struct {
	Migrations    int64 // completed migration calls
	BytesMoved    int64
	Conflicts     int64 // migration rounds that detected concurrent writes
	Retries       int64 // re-copy rounds performed
	LockFallbacks int64 // migrations that fell back to lock-based copy
}

// occCounter pairs the stats with their lock.
type occCounter struct {
	mu sync.Mutex
	s  OCCStats
}

func (c *occCounter) add(f func(*OCCStats)) {
	c.mu.Lock()
	f(&c.s)
	c.mu.Unlock()
}

func (c *occCounter) snapshot() OCCStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// Migrate moves every block of path on tier src to tier dst and returns the
// bytes moved. Mux supports every tier pair — "supporting a migration path
// takes a single line of code to invoke the migration function" (§3.1).
func (m *Mux) Migrate(path string, src, dst int) (int64, error) {
	return m.MigrateRange(path, src, dst, 0, -1)
}

// MigrateRange moves the blocks of [off, off+n) (n == -1 means to EOF)
// residing on src to dst using the OCC Synchronizer:
//
//	version++ (movement start) → copy blocks with no lock held → under the
//	bookkeeping lock, compare versions; untouched blocks commit atomically
//	into the BLT, blocks dirtied by concurrent writes retry (bounded), and
//	persistent conflicts fall back to a lock-based copy → version++ (end).
//
// Data movement does not change content, so a block whose version interval
// saw no write is correct by construction; conflicted copies are dropped
// with no side effects (§2.4). It runs as a batch of one through the same
// pipeline the Policy Runner drives (migrateBatch).
func (m *Mux) MigrateRange(path string, src, dst int, off, n int64) (int64, error) {
	j := m.newMigJob(path, src, dst, off, n)
	var halt atomic.Bool
	m.migrateBatch([]*migJob{j}, 1, &halt)
	return j.moved, j.err
}

// migJob is one move's state as it runs through the migration pipeline.
type migJob struct {
	path       string
	src, dst   int
	off, n     int64
	t0         time.Time
	ran        bool // dispatched: the pipeline reached this job
	open       bool // found work and opened its migration window
	held       bool // lock-based ablation: f.mu held from begin to commit end
	f          *muxFile
	srcT, dstT *Tier // resolved when the migration window opens
	srcH, dstH vfs.File
	work       []vfs.Extent // ranges to copy this round
	committed  []vfs.Extent // ranges repointed to dst
	moved      int64
	err        error
}

func (m *Mux) newMigJob(path string, src, dst int, off, n int64) *migJob {
	return &migJob{path: vfs.CleanPath(path), src: src, dst: dst, off: off, n: n, t0: m.telStart()}
}

// failMig records a job's first error, wrapped with the migrate op and path.
func (m *Mux) failMig(j *migJob, err error) {
	if j.err == nil {
		j.err = vfs.Errf("migrate", m.name, j.path, err)
	}
}

// migrateBatch runs moves on distinct files through the staged pipeline.
// Durability is the only serial cost of OCC migration, so the batch pays it
// once instead of once per move:
//
//  1. begin and copy each job — set the migrating flag, bump the version,
//     collect the work and copy it with no lock held (on the worker pool,
//     throttled per tier, when workers > 1);
//  2. one tier barrier (tierBarrier) makes every copy durable;
//  3. commit each job under f.mu: OCC-validate, repoint the BLT, log the
//     records (a conflict re-copies and syncs that job's destination);
//  4. one metaFlush commits every job's records;
//  5. punch every committed source range and invalidate the SCM.
//
// The ordering invariant: destination data is durable before any record
// that references it enters the meta buffer, and that record is durable
// before the source is punched. If the barrier fails, every job aborts with
// nothing repointed or punched. A hard (non-skip) error in step 1 sets
// halt, which stops the jobs that have not started yet.
func (m *Mux) migrateBatch(jobs []*migJob, workers int, halt *atomic.Bool) {
	m.copyStage(jobs, workers, halt)

	var active []*migJob
	for _, j := range jobs {
		if j.open && j.err == nil {
			active = append(active, j)
		}
	}
	if len(active) > 0 {
		if err := m.tierBarrier(active); err != nil {
			for _, j := range active {
				m.endMigration(j)
				m.failMig(j, err)
			}
		} else {
			m.commitStage(active)
		}
	}

	for _, j := range jobs {
		if !j.ran {
			continue
		}
		if j.err == nil && j.open {
			m.occ.add(func(s *OCCStats) {
				s.Migrations++
				s.BytesMoved += j.moved
			})
		}
		m.telMigrate(j.path, j.src, j.dst, j.moved, j.t0, j.err)
	}
}

// copyStage is step 1: begin each job's migration window and copy its work.
func (m *Mux) copyStage(jobs []*migJob, workers int, halt *atomic.Bool) {
	run := func(j *migJob) {
		if halt.Load() {
			return
		}
		j.ran = true
		m.beginMigration(j)
		if j.open {
			if err := m.copyRanges(j.srcH, j.dstH, j.srcT, j.dstT, j.work); err != nil {
				m.endMigration(j)
				m.failMig(j, err)
			}
		}
		if j.err != nil && !isSkipErr(j.err) {
			halt.Store(true)
		}
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			run(j)
		}
		return
	}
	throttle := m.tierThrottles(workers)
	ch := make(chan *migJob)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				release := acquireTierSlots(throttle, j.src, j.dst)
				run(j)
				release()
			}
		}()
	}
	for _, j := range jobs {
		if halt.Load() {
			break
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// beginMigration opens j's migration window: it sets the migrating flag,
// bumps the version (movement start), and collects the ranges on src. A
// job with nothing to move leaves j.open unset. Under the lock-based
// ablation f.mu stays held until the job's commit ends.
func (m *Mux) beginMigration(j *migJob) {
	m.clk.Advance(m.costs.MetaOp)
	if j.src == j.dst {
		return
	}
	srcTier, err := m.tier(j.src)
	if err != nil {
		m.failMig(j, err)
		return
	}
	dstTier, err := m.tier(j.dst)
	if err != nil {
		m.failMig(j, err)
		return
	}
	f, err := m.lookupFile(j.path)
	if err != nil {
		m.failMig(j, err)
		return
	}

	f.mu.Lock()
	if f.migrating {
		f.mu.Unlock()
		m.failMig(j, ErrMigrationActive)
		return
	}
	if j.n < 0 {
		j.n = f.meta.Size - j.off
	}
	j.work = m.collectOnTier(f, j.src, j.off, j.n)
	if len(j.work) == 0 {
		f.mu.Unlock()
		return
	}
	j.srcT, j.dstT = srcTier, dstTier
	j.srcH, err = m.ensureHandleLocked(f, srcTier)
	if err == nil {
		j.dstH, err = m.ensureHandleLocked(f, dstTier)
	}
	if err != nil {
		f.mu.Unlock()
		m.failMig(j, err)
		return
	}
	f.migrating = true
	f.version++ // movement start
	f.migDirty.Clear()
	j.f, j.open = f, true
	// Traditional lock-based migration (ablation mode): hold the per-file
	// lock through the copy, blocking user I/O — the design the OCC
	// Synchronizer replaces.
	if m.lockMig {
		j.held = true
		return
	}
	f.mu.Unlock()
}

// endMigration closes j's migration window (version++, movement end) and
// releases f.mu if the job holds it.
func (m *Mux) endMigration(j *migJob) {
	if !j.held {
		j.f.mu.Lock()
	}
	j.f.migrating = false
	j.f.version++
	j.held = false
	j.f.mu.Unlock()
}

// tierBarrier is step 2, and the first half of Mux.Sync (jobs == nil): one
// FS-level Sync per tier that needs one, fastest tier first.
//
// With a meta journal, the metaFlush that follows commits every buffered
// record, not only the batch's, so the barrier must cover every tier a
// buffered record may reference. It syncs a tier when it is one of the
// batch's destinations, or when its write epoch moved past the last
// successful Sync (Tier.writes > Tier.durable). A tier Mux has not written
// since then is skipped: every call it was sent returned before that Sync
// began, so the Sync covered it. That is no weaker than syncing every
// tier, even with concurrent writers. A call is booked after it returns
// and before any record that references it is buffered, so a record the
// flush commits refers either to a tier this barrier synced or to calls an
// earlier successful Sync covered; a record buffered after this barrier
// read a tier's epoch was no safer under the all-tier barrier, whose Sync
// of that tier could equally have run before the call. Mux.Sync uses the
// same rule. Without a journal nothing is committed, and a batch's barrier
// syncs only its destinations, whose copies the BLT is about to reference.
func (m *Mux) tierBarrier(jobs []*migJob) error {
	for _, t := range m.tierTab.Load().live {
		need := t.dirty()
		if jobs != nil {
			dst := slices.ContainsFunc(jobs, func(j *migJob) bool { return j.dst == t.ID })
			need = dst || need && m.meta != nil
		}
		if !need {
			continue
		}
		if err := t.sync(); err != nil {
			return err
		}
	}
	return nil
}

// commitStage is steps 3–5 for the jobs whose copies the barrier made
// durable: commit each, flush the meta journal once, then punch.
func (m *Mux) commitStage(jobs []*migJob) {
	anyCommitted := false
	for _, j := range jobs {
		m.commitMigration(j)
		anyCommitted = anyCommitted || len(j.committed) > 0
	}
	if !anyCommitted {
		return
	}
	if err := m.metaFlush(); err != nil {
		// Repointed in memory but not durably: keep the sources intact.
		for _, j := range jobs {
			if len(j.committed) > 0 {
				m.failMig(j, err)
			}
		}
		return
	}
	if m.hookBeforeReclaim != nil {
		m.hookBeforeReclaim()
	}
	for _, j := range jobs {
		if err := m.reclaimSource(j); err != nil {
			m.failMig(j, err)
		}
	}
}

// commitMigration is step 3 for one job: validate and commit under f.mu.
// Blocks no concurrent write dirtied repoint to dst; dirtied blocks re-copy
// (bounded retries, each synced to the destination before validation),
// and persistent conflicts fall back to a copy under f.mu, also synced
// before it repoints. The committed ranges' BLT records enter the meta
// buffer before f.mu is released, always after their bytes are durable.
func (m *Mux) commitMigration(j *migJob) {
	f := j.f
	for round := 0; ; round++ {
		if !j.held {
			if round > 0 {
				err := m.copyRanges(j.srcH, j.dstH, j.srcT, j.dstT, j.work)
				if err == nil {
					err = j.dstH.Sync()
				}
				if err != nil {
					m.failMig(j, err)
					f.mu.Lock()
					break
				}
			}
			if m.hookAfterCopy != nil {
				m.hookAfterCopy(round)
			}
			f.mu.Lock()
		}
		if m.files.get(f.ino) != f {
			// Removed since the copy began: Remove has settled its
			// usage accounting from the BLT, which must stay put.
			m.failMig(j, vfs.ErrNotExist)
			break
		}
		var conflicts []vfs.Extent
		for _, w := range j.work {
			for _, d := range f.migDirty.Segments(w.Off, w.Len) {
				if !d.Hole {
					conflicts = append(conflicts, vfs.Extent{Off: d.Off, Len: d.Len})
				}
			}
		}
		m.repointOnSrc(j, subtractRanges(j.work, conflicts))
		f.migDirty.Clear()
		if len(conflicts) == 0 {
			break
		}
		m.occ.add(func(s *OCCStats) { s.Conflicts++ })
		if round < m.maxRetry {
			m.occ.add(func(s *OCCStats) { s.Retries++ })
			j.work = conflicts
			j.held = false
			f.mu.Unlock()
			continue
		}

		// --- Lock fallback: copy the stubborn blocks while holding the
		// bookkeeping lock, blocking writers (§2.4's bounded completion
		// guarantee), and make them durable before they repoint. ---
		m.occ.add(func(s *OCCStats) { s.LockFallbacks++ })
		err := m.copyRanges(j.srcH, j.dstH, j.srcT, j.dstT, conflicts)
		if err == nil {
			err = j.dstH.Sync()
		}
		if err != nil {
			m.failMig(j, err)
		} else {
			m.repointOnSrc(j, conflicts)
		}
		break
	}
	// f.mu is held here.
	f.migrating = false
	f.version++ // movement end
	j.held = false
	if len(j.committed) > 0 {
		m.logBLTRange(f, j.off, j.n)
	}
	f.mu.Unlock()
}

// repointOnSrc repoints the parts of ranges the BLT still attributes to
// src — a concurrent write may have redirected them elsewhere — and books
// them as committed. Caller holds f.mu.
func (m *Mux) repointOnSrc(j *migJob, ranges []vfs.Extent) {
	for _, r := range ranges {
		for _, seg := range j.f.blt.Segments(r.Off, r.Len) {
			if seg.Hole || seg.Val != j.src {
				continue
			}
			m.bltRepoint(j.f, seg.Off, seg.Len, j.dst)
			j.committed = append(j.committed, vfs.Extent{Off: seg.Off, Len: seg.Len})
			j.moved += seg.Len
		}
	}
}

// reclaimSource is step 5 for one job: punch the committed ranges out of
// the source file system, after the records repointing them are durable.
// Without the ordering, a crash could recover a Block Lookup Table that
// still references source blocks the punch already destroyed. Ranges the
// BLT maps back to src since the commit (a truncate then a rewrite placed
// there) are live again and stay. The source handle is resolved again
// under f.mu: a rename since the copy closed j.srcH (repath), and the
// tier file sits, or is about to sit, at the new path.
func (m *Mux) reclaimSource(j *migJob) error {
	if len(j.committed) == 0 {
		return nil
	}
	f := j.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if m.files.get(f.ino) != f {
		return nil // removed since the commit: its deferred reclaim owns the tier files
	}
	srcH, ok := f.handles[j.srcT.ID]
	if !ok {
		// Not ensureHandleLocked: mid-rename (repath has run, the tier
		// renames have not) its create would put an empty tier file at the
		// new path, and the tier rename would then find that path taken.
		// A source file not yet at f.path keeps its bytes for the orphan
		// scrub.
		h, err := j.srcT.fs.Open(f.path)
		if errors.Is(err, vfs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		defer h.Close()
		srcH = h
	}
	for _, c := range j.committed {
		for _, seg := range f.blt.Segments(c.Off, c.Len) {
			if !seg.Hole && seg.Val == j.src {
				continue
			}
			if err := srcH.PunchHole(seg.Off, seg.Len); err != nil {
				return err
			}
		}
	}
	if scm := m.scm(); scm != nil {
		for _, c := range j.committed {
			scm.invalidate(f.ino, c.Off, c.Len)
		}
	}
	return nil
}

// isSkipErr reports whether a move's error skips the move rather than
// failing the round: the file vanished or is already migrating, a planned
// mirror clear found nothing to clear, or a tier's breaker is open.
func isSkipErr(err error) bool {
	return errors.Is(err, vfs.ErrNotExist) || errors.Is(err, ErrMigrationActive) ||
		errors.Is(err, ErrNoReplica) || errors.Is(err, ErrTierQuarantined)
}

// collectOnTier lists the ranges of [off, off+n) whose BLT entry is tier.
// Caller holds f.mu.
func (m *Mux) collectOnTier(f *muxFile, tier int, off, n int64) []vfs.Extent {
	var out []vfs.Extent
	for _, seg := range f.blt.Segments(off, n) {
		if seg.Hole || seg.Val != tier {
			continue
		}
		if len(out) > 0 && out[len(out)-1].End() == seg.Off {
			out[len(out)-1].Len += seg.Len
		} else {
			out = append(out, vfs.Extent{Off: seg.Off, Len: seg.Len})
		}
	}
	return out
}

// copyRanges copies the given ranges between two downward handles in
// migrateChunk pieces, charging OCC bookkeeping per block. With more than
// one migration worker configured the copy is pipelined (pipeCopy), so
// source reads and destination writes overlap; with one worker it degrades
// to the single-buffer read-then-write loop. Both sides run through the
// tier health trackers (health.go), so transient faults retry with backoff
// and a breaker opening mid-copy aborts the move with ErrTierQuarantined.
//
// Writes are clamped to the bytes actually read: the source may be shorter
// than the mapped range (a concurrent truncate racing the copy), and
// writing the full chunk would resurrect zero-filled garbage past EOF on
// the destination.
func (m *Mux) copyRanges(srcH, dstH vfs.File, src, dst *Tier, ranges []vfs.Extent) error {
	read := func(p []byte, off int64) (int, error) {
		blocks := (int64(len(p)) + BlockSize - 1) / BlockSize
		m.clk.Advance(time.Duration(blocks) * m.costs.OCCPerBlock)
		nr := 0
		if err := m.tierIO(src, func() error {
			var e error
			if nr, e = srcH.ReadAt(p, off); e != nil && !errors.Is(e, io.EOF) {
				return e
			}
			return nil
		}); err != nil {
			return nr, fmt.Errorf("migration read: %w", err)
		}
		return nr, nil
	}
	write := func(p []byte, off int64) error {
		if err := m.tierIO(dst, func() error {
			_, e := dstH.WriteAt(p, off)
			return e
		}); err != nil {
			return fmt.Errorf("migration write: %w", err)
		}
		return nil
	}
	if m.workers() > 1 {
		return pipeCopy(ranges, migrateChunk, read, write)
	}
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	buf := *bp
	for _, r := range ranges {
		for pos := r.Off; pos < r.End(); {
			chunk := int64(len(buf))
			if rem := r.End() - pos; chunk > rem {
				chunk = rem
			}
			nr, err := read(buf[:chunk], pos)
			if err != nil {
				return err
			}
			if nr > 0 {
				if err := write(buf[:nr], pos); err != nil {
					return err
				}
			}
			pos += chunk
		}
	}
	return nil
}

// pipeDepth is the number of in-flight buffers in the pipelined copier: one
// being filled by the reader while the previous drains to the writer.
const pipeDepth = 2

// pipeChunk is one filled buffer in flight from reader to writer.
type pipeChunk struct {
	buf []byte
	off int64
	n   int
	err error
}

// pipeCopy streams ranges from read to write with double buffering: a
// reader goroutine fills buffers while the calling goroutine writes the
// previous one, so source and destination device time overlap instead of
// summing. Short reads are clamped, never zero-filled. The first error from
// either side tears the pipeline down and is returned once both sides have
// quiesced; the reader goroutine never outlives the call. The buffers come
// from copyBufPool (so chunkSize is at most migrateChunk) and go back only
// then, when nothing references them.
func pipeCopy(ranges []vfs.Extent, chunkSize int64,
	read func([]byte, int64) (int, error), write func([]byte, int64) error) error {
	var bufs [pipeDepth]*[]byte
	free := make(chan []byte, pipeDepth)
	for i := range bufs {
		bufs[i] = copyBufPool.Get().(*[]byte)
		free <- (*bufs[i])[:chunkSize]
	}
	defer func() {
		for _, bp := range bufs {
			copyBufPool.Put(bp)
		}
	}()
	work := make(chan pipeChunk, pipeDepth)
	stop := make(chan struct{})
	go func() {
		defer close(work)
		for _, r := range ranges {
			for pos := r.Off; pos < r.End(); {
				n := chunkSize
				if rem := r.End() - pos; n > rem {
					n = rem
				}
				var buf []byte
				select {
				case buf = <-free:
				case <-stop:
					return
				}
				nr, err := read(buf[:n], pos)
				select {
				case work <- pipeChunk{buf: buf, off: pos, n: nr, err: err}:
				case <-stop:
					return
				}
				if err != nil {
					return
				}
				pos += n
			}
		}
	}()
	var firstErr error
	for c := range work {
		if firstErr == nil {
			switch {
			case c.err != nil:
				firstErr = c.err
			case c.n > 0:
				firstErr = write(c.buf[:c.n], c.off)
			}
			if firstErr != nil {
				close(stop) // reader may be blocked on free or work; wake it
			}
		}
		select {
		case free <- c.buf:
		default:
		}
	}
	return firstErr
}

// subtractRanges returns work minus conflicts.
func subtractRanges(work, conflicts []vfs.Extent) []vfs.Extent {
	if len(conflicts) == 0 {
		return work
	}
	var t extent.Tree[struct{}]
	for _, w := range work {
		t.Insert(w.Off, w.Len, struct{}{})
	}
	for _, c := range conflicts {
		t.Delete(c.Off, c.Len)
	}
	var out []vfs.Extent
	t.Walk(func(off, n int64, _ struct{}) bool {
		out = append(out, vfs.Extent{Off: off, Len: n})
		return true
	})
	return out
}

// DrainTier migrates every file's blocks off tier src onto dst, in
// preparation for RemoveTier (§2.1: "to remove a device, data must be
// migrated first").
func (m *Mux) DrainTier(src, dst int) (int64, error) {
	files := m.files.snapshot()
	paths := make([]string, 0, len(files))
	for _, f := range files {
		paths = append(paths, f.loadPath())
	}
	var total int64
	for _, p := range paths {
		moved, err := m.Migrate(p, src, dst)
		total += moved
		if err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return total, err
		}
	}
	return total, nil
}
