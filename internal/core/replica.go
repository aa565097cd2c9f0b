package core

import (
	"errors"
	"fmt"
	"io"

	"muxfs/internal/vfs"
)

// Replication implements the §4 "Crash Consistency" direction the paper
// sketches: "a much stronger crash consistency guarantee can be designed
// for Mux ... by the opportunity for data replication across devices."
//
// A file with a replica tier keeps a full mirror of its data there, written
// synchronously with every user write. Reads that fail on the authoritative
// tier (device fault, a participating file system's crash-consistency
// defect) transparently fall back to the replica. The Block Lookup Table
// still describes the authoritative placement; the replica is a shadow.

// ErrNoReplica reports a replica operation on an unreplicated file.
var ErrNoReplica = errors.New("mux: file has no replica")

// SetReplica establishes (or moves) the file's replica to the given tier
// and synchronously mirrors the current contents there.
func (m *Mux) SetReplica(path string, tier int) error {
	path = vfs.CleanPath(path)
	t, err := m.tier(tier)
	if err != nil {
		return vfs.Errf("replicate", m.name, path, err)
	}
	f, err := m.lookupFile(path)
	if err != nil {
		return vfs.Errf("replicate", m.name, path, err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	rh, err := m.ensureHandleLocked(f, t)
	if err != nil {
		return vfs.Errf("replicate", m.name, path, err)
	}
	if err := m.mirrorLocked(f, rh, t); err != nil {
		return vfs.Errf("replicate", m.name, path, err)
	}
	if err := rh.Sync(); err != nil {
		return vfs.Errf("replicate", m.name, path, err)
	}
	f.replica = tier
	f.replicaDegraded = false
	m.logReplica(f)
	f.publishReplica()
	return nil
}

// ClearReplica stops replicating the file and punches the mirror out of its
// tier. The clear record is made durable BEFORE any mirror byte is
// destroyed: punches on a synchronous-journal tier (novafs) become durable
// immediately, so the old punch-first ordering had a crash window where the
// recovered metadata still named a "clean" replica whose mirror was already
// full of holes — fallback and routed reads would have served stale zeros.
// With the record committed first, the worst a crash leaves is orphaned
// mirror bytes, which ScrubOrphans reclaims on the next remount.
func (m *Mux) ClearReplica(path string) error {
	path = vfs.CleanPath(path)
	f, err := m.lookupFile(path)
	if err != nil {
		return vfs.Errf("replicate", m.name, path, err)
	}
	f.mu.Lock()
	if f.replica < 0 {
		f.mu.Unlock()
		return vfs.Errf("replicate", m.name, path, ErrNoReplica)
	}
	rtier := f.replica
	t, terr := m.tier(rtier)
	// Unroute before the punch: a lock-free routed read that already chose
	// the mirror must fail its OCC recheck rather than see punched zeros, so
	// the routable mark drops and mapVer bumps BEFORE any hole lands
	// (route.go readRoutedMirror re-verifies both around the device call).
	f.routableReplica.Store(-1)
	f.mapVer.Add(1)
	f.replica = -1
	f.replicaDegraded = false
	m.logReplica(f)
	f.publishReplica()
	f.mu.Unlock()

	// Commit the clear record (ordered: tier syncs first, then the meta
	// journal — the invariant every meta commit obeys). Must run without
	// f.mu held: the flush may compact, which locks files.
	if err := m.Sync(); err != nil {
		return vfs.Errf("replicate", m.name, path, err)
	}
	if terr != nil {
		// The tier itself is gone; there is nothing left to reclaim.
		return nil
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	rh, err := m.ensureHandleLocked(f, t)
	if err != nil {
		return vfs.Errf("replicate", m.name, path, err)
	}
	if err := m.punchMirrorLocked(f, rh, rtier); err != nil {
		// Partially punched: the mark is already cleared, so the remaining
		// mirror bytes are plain orphans — ScrubOrphans reclaims them.
		return vfs.Errf("replicate", m.name, path, err)
	}
	return nil
}

// punchMirrorLocked reclaims the mirror bytes from the replica tier's
// same-path sparse file. Ranges the BLT maps *authoritatively* on the
// replica tier are skipped: write redirection (quarantine drain) can land
// authoritative blocks in the same underlying file as the mirror, and
// punching those would destroy live data. Caller holds f.mu.
func (m *Mux) punchMirrorLocked(f *muxFile, rh vfs.File, rtier int) error {
	if f.meta.Size == 0 {
		return nil
	}
	for _, seg := range f.blt.Segments(0, f.meta.Size) {
		if !seg.Hole && seg.Val == rtier {
			continue
		}
		if err := rh.PunchHole(seg.Off, seg.Len); err != nil {
			return err
		}
	}
	return nil
}

// Replica reports the file's replica tier (-1 when unreplicated).
func (m *Mux) Replica(path string) (int, error) {
	f, err := m.lookupFile(vfs.CleanPath(path))
	if err != nil {
		return -1, vfs.Errf("replicate", m.name, path, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.replica, nil
}

// RepairFile re-mirrors the file onto its replica tier (after the replica's
// device recovered from a fault, say).
func (m *Mux) RepairFile(path string) error {
	path = vfs.CleanPath(path)
	f, err := m.lookupFile(path)
	if err != nil {
		return vfs.Errf("repair", m.name, path, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.replica < 0 {
		return vfs.Errf("repair", m.name, path, ErrNoReplica)
	}
	t, err := m.tier(f.replica)
	if err != nil {
		return vfs.Errf("repair", m.name, path, err)
	}
	rh, err := m.ensureHandleLocked(f, t)
	if err != nil {
		return vfs.Errf("repair", m.name, path, err)
	}
	if err := m.mirrorLocked(f, rh, t); err != nil {
		return vfs.Errf("repair", m.name, path, err)
	}
	if err := rh.Sync(); err != nil {
		return vfs.Errf("repair", m.name, path, err)
	}
	f.replicaDegraded = false
	m.logReplica(f)
	f.publishReplica()
	return nil
}

// mirrorLocked copies the file's authoritative contents to the replica
// handle through the same pipelined copier migrations use (pipeCopy), so
// assembling a chunk from the source tiers overlaps with writing the
// previous chunk to the replica. Caller holds f.mu for the whole call; the
// reader closure runs on the pipeline goroutine, which is safe because the
// lock is held until the pipeline has drained.
func (m *Mux) mirrorLocked(f *muxFile, rh vfs.File, rt *Tier) error {
	read := func(p []byte, pos int64) (int, error) {
		for _, seg := range f.blt.Segments(pos, int64(len(p))) {
			dst := p[seg.Off-pos : seg.Off-pos+seg.Len]
			if seg.Hole {
				clear(dst)
				continue
			}
			t, err := m.tier(seg.Val)
			if err != nil {
				return 0, err
			}
			sh, err := m.ensureHandleLocked(f, t)
			if err != nil {
				return 0, err
			}
			segOff := seg.Off
			if err := m.tierIO(t, func() error {
				if _, rerr := sh.ReadAt(dst, segOff); rerr != nil && !errors.Is(rerr, io.EOF) {
					return rerr
				}
				return nil
			}); err != nil {
				return 0, err
			}
		}
		// The mirror always materializes the full logical chunk (holes are
		// zeroed above), unlike migration copies which clamp to the source.
		return len(p), nil
	}
	write := func(p []byte, pos int64) error {
		return m.tierIO(rt, func() error {
			_, err := rh.WriteAt(p, pos)
			return err
		})
	}
	if f.meta.Size > 0 {
		whole := []vfs.Extent{{Off: 0, Len: f.meta.Size}}
		if err := pipeCopy(whole, migrateChunk, read, write); err != nil {
			return err
		}
	}
	return rh.Truncate(f.meta.Size)
}

// mirrorWriteLocked mirrors one user write to the replica. Caller holds
// f.mu. Mirror failures are returned so the caller can mark the replica
// degraded; an already-degraded mirror is skipped (it diverged — more
// writes cannot un-diverge it, only RepairFile can).
func (m *Mux) mirrorWriteLocked(f *muxFile, p []byte, off int64) error {
	if f.replica < 0 || f.replicaDegraded {
		return nil
	}
	t, err := m.tier(f.replica)
	if err != nil {
		return fmt.Errorf("replica tier: %w", err)
	}
	rh, err := m.ensureHandleLocked(f, t)
	if err != nil {
		return fmt.Errorf("replica handle: %w", err)
	}
	if err := m.tierIO(t, func() error {
		_, werr := rh.WriteAt(p, off)
		return werr
	}); err != nil {
		return fmt.Errorf("replica write: %w", err)
	}
	return nil
}

// readWithReplicaFallback retries a failed segment read from the replica.
// Returns the original error if no replica exists, the replica is
// degraded (it diverged after a failed mirror write — serving it would
// return stale data), or the replica read fails or comes up short. A
// short replica (e.g. a truncate-then-extend raced the mirror) zeroes the
// unread tail so no stale bytes from the failed authoritative read leak
// into the caller's buffer.
//
// A successful fallback is recorded distinctly from a *routed* mirror read
// (telFallback vs telRouted): the mirror-hit ratio measures deliberate
// routing decisions, not error-path rescues. held reports that the caller
// already holds f.mu.
func (m *Mux) readWithReplicaFallback(f *muxFile, dst []byte, off int64, orig error, held bool) error {
	if !held {
		f.mu.Lock()
	}
	replica := f.replica
	degraded := f.replicaDegraded
	var t *Tier
	var rh vfs.File
	var err error
	if replica >= 0 && !degraded {
		if t, err = m.tier(replica); err == nil {
			rh, err = m.ensureHandleLocked(f, t)
		}
	}
	if !held {
		f.mu.Unlock()
	}
	if replica < 0 || degraded || err != nil || rh == nil {
		return orig
	}
	nr := 0
	if rerr := m.tierIO(t, func() error {
		var e error
		// io.EOF here is a logical short read, not a device fault: strip it
		// so it neither trips the breaker nor masks the shortfall below.
		if nr, e = rh.ReadAt(dst, off); e != nil && !errors.Is(e, io.EOF) {
			return e
		}
		return nil
	}); rerr != nil {
		return orig
	}
	if nr < len(dst) {
		clear(dst[nr:])
		return orig
	}
	f.fallbackReads.Add(1)
	m.telFallback(t)
	return nil
}
