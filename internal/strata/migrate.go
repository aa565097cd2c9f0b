package strata

import (
	"time"

	"muxfs/internal/device"
	"muxfs/internal/vfs"
)

// SupportsMigration reports whether Strata has a wired data path for the
// tier pair — only PM→SSD and PM→HDD exist (Figure 3a). Every other pair
// would require hand-matching the threading model, block size, and call
// context of the two device backends (§3.1), which the baseline never did.
func (fs *FS) SupportsMigration(src, dst device.Class) bool {
	return src == device.PM && (dst == device.SSD || dst == device.HDD)
}

// Migrate moves every block of path currently on src to dst and returns the
// number of bytes moved. Unwired pairs fail with ErrUnsupportedPath.
//
// The whole operation runs under the global extent-tree lock: in Strata the
// tree holds both block offsets and device indexes, so migration locks out
// all other access to the file system — the contention cost §3.1 describes.
func (fs *FS) Migrate(path string, src, dst device.Class) (int64, error) {
	if !fs.SupportsMigration(src, dst) {
		return 0, errUnsupported(src, dst)
	}
	path = vfs.CleanPath(path)

	fs.mu.Lock()
	defer fs.mu.Unlock()

	e, err := fs.ns.Lookup(path)
	if err != nil {
		return 0, vfs.Errf("migrate", fs.name, path, err)
	}
	if e.IsDir() {
		return 0, vfs.Errf("migrate", fs.name, path, vfs.ErrIsDir)
	}
	ino := e.File

	// Log-resident data must be digested before it can move tier-to-tier.
	if err := fs.digestLocked(); err != nil {
		return 0, err
	}

	// Collect source segments first; the tree cannot be mutated mid-walk.
	var work []segment
	ino.ext.Walk(func(off, n int64, v loc) bool {
		if !v.InLog && v.Class == src {
			work = append(work, segment{Off: off, Len: n, Val: v})
		}
		return true
	})

	srcDev, dstDev := fs.devs[src], fs.devs[dst]
	amp := fs.writeAmp(dst)
	ioSize := fs.costs.MigrateIOSize
	if ioSize < PageSize {
		ioSize = PageSize
	}
	var moved int64
	buf := make([]byte, ioSize)
	for _, seg := range work {
		npages := int(seg.Len / PageSize)
		pages, err := fs.allocs[dst].AllocN(npages)
		if err != nil {
			return moved, vfs.Errf("migrate", fs.name, path, vfs.ErrNoSpace)
		}
		// Transfer in the path's fixed I/O units; a unit shrinks when the
		// destination allocation is not contiguous.
		for i := 0; i < len(pages); {
			j := i + 1
			for j < len(pages) && pages[j] == pages[j-1]+1 &&
				int64(j-i+1)*PageSize <= ioSize {
				j++
			}
			chunk := int64(j-i) * PageSize
			fs.clk.Advance(time.Duration(j-i) * fs.costs.LockPerBlock) // per-block tree updates, lock held
			srcOff := seg.Off + seg.Val.Delta + int64(i)*PageSize
			if _, err := srcDev.ReadAt(buf[:chunk], srcOff); err != nil {
				return moved, err
			}
			devOff := pages[i] * PageSize
			if _, err := dstDev.WriteAt(buf[:chunk], devOff); err != nil {
				return moved, err
			}
			if amp > 1 {
				extra := int64(float64(chunk) * (amp - 1))
				fs.clk.Advance(time.Duration(extra * int64(time.Second) / dstDev.Profile().WriteBandwidth))
			}
			for k := i; k < j; k++ {
				fOff := seg.Off + int64(k)*PageSize
				ino.ext.Insert(fOff, PageSize, loc{Class: dst, Delta: (pages[i]+int64(k-i))*PageSize - fOff})
				fs.allocs[src].FreeBlock((seg.Off + seg.Val.Delta + int64(k)*PageSize) / PageSize)
				moved += PageSize
			}
			i = j
		}
	}
	dstDev.PersistAll()
	return moved, nil
}
