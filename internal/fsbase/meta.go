package fsbase

import (
	"time"

	"muxfs/internal/extent"
	"muxfs/internal/vfs"
)

// Inode is a regular file of a native file system: its metadata and its
// extent map. Ext maps file offsets to device offsets, delta-encoded (the
// value is devOff - fileOff, constant across a physically contiguous run)
// so extent splits and merges stay exact. Mappings are whole pages.
type Inode struct {
	Meta Meta
	Ext  extent.Tree[int64]
}

// Meta is the mutable inode metadata every native file system tracks.
type Meta struct {
	Size    int64
	Blocks  int64 // allocated bytes (sparse-aware)
	Mode    vfs.FileMode
	ModTime time.Duration
	ATime   time.Duration
	CTime   time.Duration
}

// Info assembles a vfs.FileInfo for path from the metadata.
func (m *Meta) Info(path string) vfs.FileInfo {
	return vfs.FileInfo{
		Path:    path,
		Size:    m.Size,
		Blocks:  m.Blocks,
		Mode:    m.Mode,
		ModTime: m.ModTime,
		ATime:   m.ATime,
		CTime:   m.CTime,
	}
}

// Apply folds a partial SetAttr into the metadata and reports whether
// anything changed. Size changes are the caller's job (they move data);
// Apply only records the new value.
func (m *Meta) Apply(attr vfs.SetAttr, now time.Duration) bool {
	changed := false
	if attr.Size != nil && *attr.Size != m.Size {
		m.Size = *attr.Size
		changed = true
	}
	if attr.Mode != nil && *attr.Mode != m.Mode {
		m.Mode = *attr.Mode &^ vfs.ModeDir
		changed = true
	}
	if attr.ModTime != nil && *attr.ModTime != m.ModTime {
		m.ModTime = *attr.ModTime
		changed = true
	}
	if attr.ATime != nil && *attr.ATime != m.ATime {
		m.ATime = *attr.ATime
		changed = true
	}
	if changed {
		m.CTime = now
	}
	return changed
}
