package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"muxfs/internal/vfs"
)

// ScrubOrphans cross-checks every tier's on-device state against the
// recovered Mux metadata and (when repair is true) reclaims storage a crash
// orphaned:
//
//   - tier files absent from the Mux namespace — a create, or a quarantine
//     redirect, whose metadata record never committed — are removed;
//   - backing extents of known files that no BLT run and no replica mirror
//     references are punched out. These arise from a crash between a
//     migration's destination sync and its BLT commit (copied blocks on the
//     destination), from a committed migration whose volatile source punch
//     the crash reverted, and from mirror bytes whose SetReplica /
//     ClearReplica record never committed;
//   - mirrors that diverged from the authoritative contents are re-mirrored
//     (RepairFile). Tier syncs are ordered fastest-first, so a crash between
//     the authoritative tier's sync and the mirror tier's sync leaves a
//     committed replica record naming a mirror that missed the last writes —
//     fallback reads would serve the stale bytes.
//
// It returns the orphaned byte count found (and, with repair, reclaimed).
// The scrub recomputes orphans from current state, so it is idempotent: a
// crash mid-scrub simply leaves the remainder for the next remount's scrub.
// It must run AFTER recovery replay — it trusts the Block Lookup Table —
// and it performs journaled tier writes, which is why it is a distinct
// phase rather than part of read-only replay.
func (m *Mux) ScrubOrphans(repair bool) (int64, error) {
	var total int64
	acted := false
	if repair {
		// Finish tier-side renames first: until they run, the renamed file's
		// tier state sits under its old name, which the orphan walk below
		// would otherwise remove.
		var err error
		if acted, err = m.completeRenames(); err != nil {
			return 0, err
		}
	}
	for _, t := range m.Tiers() {
		n, err := m.scrubTier(t, repair)
		total += n
		if err != nil {
			return total, err
		}
	}
	if repair && (total > 0 || acted) {
		// Make the reclamation durable; otherwise the next crash reverts
		// group-committed punches and the same orphans return.
		if err := m.Sync(); err != nil {
			return total, err
		}
	}
	return total, nil
}

// renameFixup records a rename whose journal record committed but whose
// tier-side renames may not have run before the crash: Rename makes its
// record durable BEFORE moving the tier files, so replay can land the new
// name while a tier still holds the contents under the old one.
type renameFixup struct {
	old, new string
}

// completeRenames finishes the tier-side renames registered by journal
// replay. Each fixup is guarded so completed or superseded renames are
// no-ops: the namespace must still be missing the old name and holding the
// new one, and a tier is only touched when it has the old path and not the
// new. Reports whether any tier state changed. The fixup list is kept on
// error so a retry (or the next remount's replay) can finish the job.
func (m *Mux) completeRenames() (bool, error) {
	acted := false
	for _, fx := range m.renameFix {
		if _, err := m.ns.Lookup(fx.old); err == nil {
			continue // old name re-occupied by a later committed op
		}
		if _, err := m.ns.Lookup(fx.new); err != nil {
			continue // new name gone again; nothing to converge to
		}
		for _, t := range m.Tiers() {
			if _, err := t.FS.Stat(fx.old); err != nil {
				continue // this tier already moved (or never held) the file
			}
			if _, err := t.FS.Stat(fx.new); err == nil {
				continue // destination occupied; leave for the orphan walk
			}
			if err := m.ensureDirs(t, fx.new); err != nil {
				return acted, fmt.Errorf("scrub %s: mkdirs for %s: %w", t.FS.Name(), fx.new, err)
			}
			if err := t.fs.Rename(fx.old, fx.new); err != nil && !errors.Is(err, vfs.ErrNotExist) {
				return acted, fmt.Errorf("scrub %s: complete rename %s -> %s: %w",
					t.FS.Name(), fx.old, fx.new, err)
			}
			acted = true
		}
	}
	m.renameFix = nil
	return acted, nil
}

func (m *Mux) scrubTier(t *Tier, repair bool) (int64, error) {
	var total int64
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := t.FS.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("scrub %s: readdir %s: %w", t.FS.Name(), dir, err)
		}
		for _, e := range ents {
			p := dir + "/" + e.Name
			if dir == "/" {
				p = "/" + e.Name
			}
			if e.IsDir {
				if err := walk(p); err != nil {
					return err
				}
				continue
			}
			if p == CacheFilePath {
				continue // the SCM cache file is Mux-owned, not namespace state
			}
			n, err := m.scrubFile(t, p, repair)
			total += n
			if err != nil {
				return err
			}
		}
		return nil
	}
	return total, walk("/")
}

// scrubFile reconciles one tier file against the Mux metadata.
func (m *Mux) scrubFile(t *Tier, path string, repair bool) (int64, error) {
	info, err := m.ns.Lookup(path)
	if err != nil || info.IsDir() || info.File == nil {
		// Unknown to the namespace: the whole tier file is an orphan.
		n, eerr := tierFileBytes(t, path)
		if eerr != nil {
			return 0, eerr
		}
		if repair {
			if rerr := t.fs.Remove(path); rerr != nil && !errors.Is(rerr, vfs.ErrNotExist) {
				return n, fmt.Errorf("scrub %s: remove orphan %s: %w", t.FS.Name(), path, rerr)
			}
		}
		return n, nil
	}
	f := info.File

	// The reference set must stay stable between computing it and punching
	// the unreferenced gaps: a racing write that lands a new BLT run after
	// the snapshot would otherwise have its freshly-written blocks punched
	// out from under it. Holding f.mu across both closes that window (the
	// scrub runs against live traffic via deferred reclaim, not just on the
	// quiesced remount path).
	n, err := func() (int64, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.path != path {
			// Renamed between the lookup and the lock; the tier file at this
			// path will be revisited under the file's current name (or as an
			// orphan on the next scrub pass).
			return 0, nil
		}
		// Referenced ranges on this tier: BLT runs attributed to it — or the
		// whole logical range when this tier holds the file's mirror (the
		// mirror materializes [0, size) in full, holes zeroed).
		var refs []vfs.Extent
		if f.replica == t.ID {
			if f.meta.Size > 0 {
				refs = append(refs, vfs.Extent{Off: 0, Len: f.meta.Size})
			}
		} else {
			f.blt.Walk(func(off, n int64, tier int) bool {
				if tier == t.ID {
					refs = append(refs, vfs.Extent{Off: off, Len: n})
				}
				return true
			})
		}
		h, err := t.fs.Open(path)
		if err != nil {
			if errors.Is(err, vfs.ErrNotExist) {
				return 0, nil
			}
			return 0, fmt.Errorf("scrub %s: open %s: %w", t.FS.Name(), path, err)
		}
		defer h.Close()
		exts, err := h.Extents()
		if err != nil {
			return 0, fmt.Errorf("scrub %s: extents %s: %w", t.FS.Name(), path, err)
		}
		gaps := subtractCover(exts, roundCover(refs))
		var n int64
		for _, g := range gaps {
			n += g.Len
			if repair {
				if perr := h.PunchHole(g.Off, g.Len); perr != nil {
					return n, fmt.Errorf("scrub %s: punch orphan [%d,%d) of %s: %w",
						t.FS.Name(), g.Off, g.End(), path, perr)
				}
			}
		}
		return n, nil
	}()
	if err != nil {
		return n, err
	}

	// When this tier holds the file's mirror, byte-compare it against the
	// authoritative contents: a crash between the ordered tier syncs can
	// leave a committed replica record naming a mirror that missed the last
	// user writes.
	div, verr := m.verifyMirror(f, t)
	if verr != nil {
		return n, fmt.Errorf("scrub %s: verify mirror %s: %w", t.FS.Name(), path, verr)
	}
	n += div
	if div > 0 && repair {
		if rerr := m.RepairFile(path); rerr != nil {
			return n, fmt.Errorf("scrub %s: repair mirror %s: %w", t.FS.Name(), path, rerr)
		}
	}
	return n, nil
}

// verifyMirror byte-compares the mirror held on tier t against the
// authoritative contents assembled from the Block Lookup Table and returns
// the diverged byte count (block-rounded). No-op when t does not hold the
// file's mirror.
func (m *Mux) verifyMirror(f *muxFile, t *Tier) (int64, error) {
	const chunk = 256 << 10
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.replica != t.ID || f.meta.Size == 0 {
		return 0, nil
	}
	rh, err := m.ensureHandleLocked(f, t)
	if err != nil {
		return 0, err
	}
	auth := make([]byte, chunk)
	mir := make([]byte, chunk)
	var diverged int64
	for pos := int64(0); pos < f.meta.Size; pos += chunk {
		n := f.meta.Size - pos
		if n > chunk {
			n = chunk
		}
		a, b := auth[:n], mir[:n]
		clear(a)
		for _, seg := range f.blt.Segments(pos, n) {
			if seg.Hole {
				continue // already zero
			}
			dst := a[seg.Off-pos : seg.Off-pos+seg.Len]
			var sh vfs.File
			if seg.Val == t.ID {
				// Authoritative blocks redirected into the mirror's own file
				// (quarantine drain) trivially match; read them from it.
				sh = rh
			} else {
				st, terr := m.tier(seg.Val)
				if terr != nil {
					return diverged, terr
				}
				if sh, err = m.ensureHandleLocked(f, st); err != nil {
					return diverged, err
				}
			}
			if _, rerr := sh.ReadAt(dst, seg.Off); rerr != nil && !errors.Is(rerr, io.EOF) {
				return diverged, rerr
			}
		}
		nr, rerr := rh.ReadAt(b, pos)
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return diverged, rerr
		}
		clear(b[nr:])
		for off := int64(0); off < n; off += BlockSize {
			end := off + BlockSize
			if end > n {
				end = n
			}
			if !bytes.Equal(a[off:end], b[off:end]) {
				diverged += end - off
			}
		}
	}
	return diverged, nil
}

// tierFileBytes sums the backing extents of one tier file.
func tierFileBytes(t *Tier, path string) (int64, error) {
	h, err := t.fs.Open(path)
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer h.Close()
	exts, err := h.Extents()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range exts {
		n += e.Len
	}
	return n, nil
}

// roundCover rounds byte ranges outward to BlockSize and merges overlaps
// into a sorted, disjoint cover. Backing extents are block-granular, so a
// partially-referenced block counts as referenced.
func roundCover(refs []vfs.Extent) []vfs.Extent {
	if len(refs) == 0 {
		return nil
	}
	out := make([]vfs.Extent, 0, len(refs))
	for _, r := range refs {
		lo := r.Off / BlockSize * BlockSize
		hi := (r.End() + BlockSize - 1) / BlockSize * BlockSize
		out = append(out, vfs.Extent{Off: lo, Len: hi - lo})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r.Off <= last.End() {
			if r.End() > last.End() {
				last.Len = r.End() - last.Off
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// subtractCover returns the parts of exts not covered by the sorted,
// disjoint cover.
func subtractCover(exts, cover []vfs.Extent) []vfs.Extent {
	var out []vfs.Extent
	for _, e := range exts {
		pos := e.Off
		for _, c := range cover {
			if c.End() <= pos {
				continue
			}
			if c.Off >= e.End() {
				break
			}
			if c.Off > pos {
				out = append(out, vfs.Extent{Off: pos, Len: c.Off - pos})
			}
			if c.End() > pos {
				pos = c.End()
			}
			if pos >= e.End() {
				break
			}
		}
		if pos < e.End() {
			out = append(out, vfs.Extent{Off: pos, Len: e.End() - pos})
		}
	}
	return out
}
