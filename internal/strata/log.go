package strata

import (
	"fmt"
	"sort"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/vfs"
)

// logHeaderBytes models the per-entry header Strata persists with each log
// append.
const logHeaderBytes = 32

// writeLocked appends the write to the PM operation log — the defining
// Strata behavior: data destined for *any* tier is first written (and
// persisted) on PM, then digested. Log pages come from the PM allocator
// itself, so digestion of PM-placed data can adopt them in place (Strata's
// NVM data stays where the log wrote it; only the extent tree updates),
// while SSD/HDD-placed data pays the full copy-out. Caller holds fs.mu.
func (fs *FS) writeLocked(ino *inode, inoNum uint64, p []byte, off int64) (int, error) {
	fs.clk.Advance(fs.costs.WriteOp)
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	n := int64(len(p))
	// The log stores page-aligned block images (RMW for ragged edges), so
	// digestion always moves or adopts whole blocks.
	aStart := off / PageSize * PageSize
	aEnd := (off + n + PageSize - 1) / PageSize * PageSize
	fs.clk.Advance(time.Duration((aEnd-aStart)/PageSize) * fs.costs.PerPage)

	// Oversized writes digest between chunks to keep log growth bounded.
	maxChunk := fs.logLimit() / 2 / PageSize * PageSize
	if aEnd-aStart > maxChunk {
		var written int64
		for written < n {
			chunk := n - written
			if chunk > maxChunk-PageSize {
				chunk = maxChunk - PageSize
			}
			m, err := fs.writeLocked(ino, inoNum, p[written:written+chunk], off+written)
			if err != nil {
				return int(written) + m, err
			}
			written += int64(m)
		}
		return int(written), nil
	}

	if fs.logBytes+(aEnd-aStart) > fs.logLimit() {
		if err := fs.digestLocked(); err != nil {
			return 0, err
		}
	}

	// Build the aligned block image: existing content overlaid with p.
	// Fully covered images need no read-modify-write fill.
	buf := make([]byte, aEnd-aStart)
	if off != aStart || off+n != aEnd {
		fs.rawRead(ino, buf, aStart)
	}
	copy(buf[off-aStart:], p)

	// Allocate log pages from the PM allocator and write+persist the image.
	npages := int((aEnd - aStart) / PageSize)
	pages, err := fs.allocs[device.PM].AllocN(npages)
	if err != nil {
		// PM exhausted: digest to push data down, then retry once.
		if derr := fs.digestLocked(); derr != nil {
			return 0, derr
		}
		if pages, err = fs.allocs[device.PM].AllocN(npages); err != nil {
			return 0, vfs.ErrNoSpace
		}
	}
	pm := fs.devs[device.PM]

	// Old blocks covered by this write are superseded wholesale (whole
	// pages): free them before repointing, or they leak.
	fs.freePages(ino, aStart, aEnd-aStart)

	for i, page := range pages {
		pmOff := page * PageSize
		if _, err := pm.WriteAt(buf[int64(i)*PageSize:int64(i+1)*PageSize], pmOff); err != nil {
			return 0, err
		}
		if err := pm.Persist(pmOff, PageSize+logHeaderBytes); err != nil {
			return 0, err
		}
		fOff := aStart + int64(i)*PageSize
		// Coalesce contiguous pages into one log entry.
		if len(fs.logEntries) > 0 {
			last := &fs.logEntries[len(fs.logEntries)-1]
			if last.ino == inoNum && last.fileOff+last.n == fOff && last.logOff+last.n == pmOff {
				last.n += PageSize
				ino.ext.Insert(fOff, PageSize, loc{Class: device.PM, Delta: last.logOff - last.fileOff, InLog: true})
				continue
			}
		}
		fs.logEntries = append(fs.logEntries, logEntry{ino: inoNum, fileOff: fOff, n: PageSize, logOff: pmOff})
		ino.ext.Insert(fOff, PageSize, loc{Class: device.PM, Delta: pmOff - fOff, InLog: true})
	}
	fs.logBytes += aEnd - aStart

	now := fs.now()
	if off+n > ino.meta.Size {
		ino.meta.Size = off + n
	}
	ino.meta.ModTime = now

	if float64(fs.logBytes) > fs.digestThreshold*float64(fs.logLimit()) {
		if err := fs.digestLocked(); err != nil {
			return 0, err
		}
	}
	return int(n), nil
}

// logLimit is the log-size budget that triggers digestion.
func (fs *FS) logLimit() int64 { return fs.logBudget }

// rawRead fills buf with the file's current content at off, ignoring the
// logical size (holes and unwritten tails read as zeros). Caller holds fs.mu.
func (fs *FS) rawRead(ino *inode, buf []byte, off int64) {
	for _, seg := range ino.ext.Segments(off, int64(len(buf))) {
		dst := buf[seg.Off-off : seg.Off-off+seg.Len]
		if seg.Hole {
			for i := range dst {
				dst[i] = 0
			}
			continue
		}
		fs.devs[seg.Val.Class].ReadAt(dst, seg.Off+seg.Val.Delta)
	}
}

// liveSeg is one still-live piece of a log entry awaiting digestion.
type liveSeg struct {
	ino     uint64
	fileOff int64
	n       int64
	srcPM   int64
}

// digestLocked empties the operation log. PM-placed data is adopted in
// place — Strata's NVM-resident data stays in its log blocks and only the
// extent tree updates under the coarse lock. SSD/HDD-placed data is copied
// out (the log-then-digest write amplification the paper measures) and its
// PM pages are freed. Live pieces digest in (inode, file-offset) order with
// file-contiguous pieces merged, so final-device writes batch the way
// Strata's sequential digestion does. Caller holds fs.mu.
func (fs *FS) digestLocked() error {
	var live []liveSeg
	for _, e := range fs.logEntries {
		ino, ok := fs.inodes[e.ino]
		if !ok {
			continue // file removed while its data sat in the log
		}
		fs.clk.Advance(fs.costs.DigestPerOp)
		want := loc{Class: device.PM, Delta: e.logOff - e.fileOff, InLog: true}
		// Only segments still mapped to this entry are live (later writes
		// may have superseded parts of it; freePages dropped those pages).
		for _, seg := range ino.ext.Segments(e.fileOff, e.n) {
			if seg.Hole || seg.Val != want {
				continue
			}
			live = append(live, liveSeg{e.ino, seg.Off, seg.Len, seg.Off + seg.Val.Delta})
		}
	}
	// Elevator order: file-contiguous pieces (whose log pages may be
	// scattered) digest as one run.
	sort.Slice(live, func(i, j int) bool {
		if live[i].ino != live[j].ino {
			return live[i].ino < live[j].ino
		}
		return live[i].fileOff < live[j].fileOff
	})
	for start := 0; start < len(live); {
		end := start + 1
		for end < len(live) &&
			live[end].ino == live[start].ino &&
			live[end].fileOff == live[end-1].fileOff+live[end-1].n {
			end++
		}
		if err := fs.digestRun(live[start:end]); err != nil {
			return err
		}
		start = end
	}
	fs.logEntries = fs.logEntries[:0]
	fs.logBytes = 0
	fs.devs[device.PM].Persist(0, 0) // barrier closing the digest batch
	return nil
}

// digestRun finalizes a file-contiguous run of live pieces. Caller holds
// fs.mu.
func (fs *FS) digestRun(pieces []liveSeg) error {
	ino := fs.inodes[pieces[0].ino]
	fileOff := pieces[0].fileOff
	var n int64
	for _, p := range pieces {
		n += p.n
	}
	target := fs.place(ino.path, pieces[0].ino, fileOff, n)
	nblocks := n / PageSize

	if target == device.PM {
		// In-place adoption: the data already sits on PM; digestion is a
		// per-block extent-tree update under the global lock.
		fs.clk.Advance(time.Duration(nblocks) * fs.costs.LockPerBlock)
		for _, p := range pieces {
			ino.ext.Insert(p.fileOff, p.n, loc{Class: device.PM, Delta: p.srcPM - p.fileOff})
		}
		return nil
	}

	pages, err := fs.allocs[target].AllocN(int(nblocks))
	if err != nil {
		// Placement tier full: waterfall down, or give up at the bottom.
		switch target {
		case device.SSD:
			target = device.HDD
		default:
			return vfs.ErrNoSpace
		}
		if pages, err = fs.allocs[target].AllocN(int(nblocks)); err != nil {
			return vfs.ErrNoSpace
		}
	}

	pm := fs.devs[device.PM]
	dst := fs.devs[target]
	amp := fs.writeAmp(target)
	fs.clk.Advance(time.Duration(nblocks) * fs.costs.LockPerBlock) // tree updates

	// Gather the run image from its (possibly scattered) log pages.
	buf := make([]byte, n)
	var at int64
	for _, p := range pieces {
		if _, err := pm.ReadAt(buf[at:at+p.n], p.srcPM); err != nil {
			return err
		}
		at += p.n
	}

	// Write to the final device, merging device-contiguous page allocations
	// into single large writes.
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		devOff := pages[i] * PageSize
		chunk := buf[int64(i)*PageSize : int64(j)*PageSize]
		if _, err := dst.WriteAt(chunk, devOff); err != nil {
			return err
		}
		if amp > 1 {
			extra := int64(float64(len(chunk)) * (amp - 1))
			fs.clk.Advance(time.Duration(extra * int64(time.Second) / dst.Profile().WriteBandwidth))
		}
		for k := i; k < j; k++ {
			fOff := fileOff + int64(k)*PageSize
			ino.ext.Insert(fOff, PageSize, loc{Class: target, Delta: (pages[i]+int64(k-i))*PageSize - fOff})
		}
		i = j
	}
	// Reclaim the log pages.
	for _, p := range pieces {
		for b := p.srcPM; b < p.srcPM+p.n; b += PageSize {
			fs.allocs[device.PM].FreeBlock(b / PageSize)
		}
	}
	dst.Persist(pages[0]*PageSize, 0)
	return nil
}

func (fs *FS) writeAmp(cls device.Class) float64 {
	switch cls {
	case device.PM:
		return fs.costs.WriteAmpPM
	case device.SSD:
		return fs.costs.WriteAmpSSD
	default:
		return fs.costs.WriteAmpHDD
	}
}

// LogUsage reports current log occupancy (benchmark inspection).
func (fs *FS) LogUsage() (used, budget int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.logBytes, fs.logBudget
}

// Digest forces a full digest (benchmarks call it to settle state).
func (fs *FS) Digest() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.digestLocked()
}

// errUnsupported formats the N/S error for a tier pair.
func errUnsupported(src, dst device.Class) error {
	return fmt.Errorf("%w: %s -> %s", ErrUnsupportedPath, src, dst)
}
