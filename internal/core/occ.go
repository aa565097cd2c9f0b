package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
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
// with no side effects (§2.4).
func (m *Mux) MigrateRange(path string, src, dst int, off, n int64) (int64, error) {
	t0 := m.telStart()
	moved, err := m.migrateRange(path, src, dst, off, n)
	m.telMigrate(path, src, dst, moved, t0, err)
	return moved, err
}

func (m *Mux) migrateRange(path string, src, dst int, off, n int64) (int64, error) {
	path = vfs.CleanPath(path)
	m.clk.Advance(m.costs.MetaOp)
	if src == dst {
		return 0, nil
	}
	srcTier, err := m.tier(src)
	if err != nil {
		return 0, vfs.Errf("migrate", m.name, path, err)
	}
	dstTier, err := m.tier(dst)
	if err != nil {
		return 0, vfs.Errf("migrate", m.name, path, err)
	}

	f, err := m.lookupFile(path)
	if err != nil {
		return 0, vfs.Errf("migrate", m.name, path, err)
	}

	// --- Start the migration window. ---
	f.mu.Lock()
	if f.migrating {
		f.mu.Unlock()
		return 0, vfs.Errf("migrate", m.name, path, ErrMigrationActive)
	}
	f.migrating = true
	f.version++ // movement start
	f.migDirty.Clear()
	if n < 0 {
		n = f.meta.Size - off
	}
	work := m.collectOnTier(f, src, off, n)
	if len(work) == 0 {
		f.migrating = false
		f.version++
		f.mu.Unlock()
		return 0, nil
	}
	srcH, err := m.ensureHandleLocked(f, srcTier)
	if err == nil {
		_, err = m.ensureHandleLocked(f, dstTier)
	}
	dstH := f.handles[dst]
	if err != nil {
		f.migrating = false
		f.version++
		f.mu.Unlock()
		return 0, vfs.Errf("migrate", m.name, path, err)
	}

	var moved int64
	var committed []vfs.Extent

	// Traditional lock-based migration (ablation mode): hold the per-file
	// lock for the entire copy, blocking user I/O — the design the OCC
	// Synchronizer replaces.
	if m.lockMig {
		err := m.copyRanges(srcH, dstH, src, dst, work)
		if err == nil {
			err = dstH.Sync()
		}
		if err != nil {
			f.migrating = false
			f.version++
			f.mu.Unlock()
			return moved, vfs.Errf("migrate", m.name, path, err)
		}
		for _, w := range work {
			m.bltRepoint(f, w.Off, w.Len, dst)
			committed = append(committed, w)
			moved += w.Len
		}
		f.migrating = false
		f.version++
		m.logBLTRange(f, off, n)
		f.mu.Unlock()
		if err := m.reclaimSource(f, srcH, committed); err != nil {
			return moved, vfs.Errf("migrate", m.name, path, err)
		}
		m.occ.add(func(s *OCCStats) {
			s.Migrations++
			s.BytesMoved += moved
		})
		return moved, nil
	}
	f.mu.Unlock()

	for round := 0; ; round++ {
		// --- Optimistic copy: no lock held; concurrent reads and writes
		// proceed against the still-authoritative source blocks. ---
		if err := m.copyRanges(srcH, dstH, src, dst, work); err != nil {
			m.abortMigration(f)
			return moved, vfs.Errf("migrate", m.name, path, err)
		}
		// The copy must be durable on the destination before the BLT can
		// commit and the source can be punched.
		if err := dstH.Sync(); err != nil {
			m.abortMigration(f)
			return moved, vfs.Errf("migrate", m.name, path, err)
		}
		if m.hookAfterCopy != nil {
			m.hookAfterCopy(round)
		}

		// --- Validate & commit. ---
		f.mu.Lock()
		var conflicts []vfs.Extent
		for _, w := range work {
			for _, d := range f.migDirty.Segments(w.Off, w.Len) {
				if !d.Hole {
					conflicts = append(conflicts, vfs.Extent{Off: d.Off, Len: d.Len})
				}
			}
		}
		clean := subtractRanges(work, conflicts)
		for _, c := range clean {
			// Only repoint blocks the BLT still attributes to src: a
			// concurrent write may have redirected them elsewhere.
			for _, seg := range f.blt.Segments(c.Off, c.Len) {
				if seg.Hole || seg.Val != src {
					continue
				}
				m.bltRepoint(f, seg.Off, seg.Len, dst)
				committed = append(committed, vfs.Extent{Off: seg.Off, Len: seg.Len})
				moved += seg.Len
			}
		}
		f.migDirty.Clear()

		if len(conflicts) == 0 {
			f.migrating = false
			f.version++ // movement end
			f.mu.Unlock()
			break
		}

		m.occ.add(func(s *OCCStats) { s.Conflicts++ })

		if round < m.maxRetry {
			m.occ.add(func(s *OCCStats) { s.Retries++ })
			work = conflicts
			f.mu.Unlock()
			continue
		}

		// --- Lock fallback: copy the stubborn blocks while holding the
		// bookkeeping lock, blocking writers (§2.4's bounded completion
		// guarantee). ---
		m.occ.add(func(s *OCCStats) { s.LockFallbacks++ })
		if err := m.copyRanges(srcH, dstH, src, dst, conflicts); err != nil {
			f.migrating = false
			f.version++
			f.mu.Unlock()
			return moved, vfs.Errf("migrate", m.name, path, err)
		}
		for _, c := range conflicts {
			for _, seg := range f.blt.Segments(c.Off, c.Len) {
				if seg.Hole || seg.Val != src {
					continue
				}
				m.bltRepoint(f, seg.Off, seg.Len, dst)
				committed = append(committed, vfs.Extent{Off: seg.Off, Len: seg.Len})
				moved += seg.Len
			}
		}
		f.migrating = false
		f.version++
		f.mu.Unlock()
		break
	}

	f.mu.Lock()
	m.logBLTRange(f, off, n)
	f.mu.Unlock()

	if err := m.reclaimSource(f, srcH, committed); err != nil {
		return moved, vfs.Errf("migrate", m.name, path, err)
	}

	m.occ.add(func(s *OCCStats) {
		s.Migrations++
		s.BytesMoved += moved
	})
	return moved, nil
}

// reclaimSource punches the migrated ranges out of the source file system —
// but only after the BLT repoint is durable. Without the ordering, a crash
// could recover a Block Lookup Table that still references source blocks
// the punch already destroyed. Caller must NOT hold f.mu (the meta flush
// may compact, which locks files).
func (m *Mux) reclaimSource(f *muxFile, srcH vfs.File, committed []vfs.Extent) error {
	if len(committed) == 0 {
		return nil
	}
	if m.meta != nil {
		// Ordered commit: tier syncs first, then the Mux meta journal.
		if err := m.Sync(); err != nil {
			return err
		}
	}
	for _, c := range committed {
		if err := srcH.PunchHole(c.Off, c.Len); err != nil {
			return err
		}
	}
	if scm := m.scm(); scm != nil {
		for _, c := range committed {
			scm.invalidate(f.ino, c.Off, c.Len)
		}
	}
	return nil
}

// abortMigration clears the migration window after an I/O failure.
func (m *Mux) abortMigration(f *muxFile) {
	f.mu.Lock()
	f.migrating = false
	f.version++
	f.mu.Unlock()
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
func (m *Mux) copyRanges(srcH, dstH vfs.File, src, dst int, ranges []vfs.Extent) error {
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
