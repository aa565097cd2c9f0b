package core

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"muxfs/internal/cache"
	"muxfs/internal/device"
	"muxfs/internal/vfs"
)

// CacheFilePath is the single preallocated cache file (§2.5: "Mux can
// create one file for all caches, which helps reduce the overhead of
// managing multiple files as well as disk fragmentation").
const CacheFilePath = "/.muxcache"

// CacheStats reports SCM cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Slots     int64
	UsedSlots int
}

// cacheCtl is the Cache Controller (§2.5): an SCM-resident block cache in
// front of the slow tiers, with MGLRU replacement. The cache lives in one
// preallocated file on a PM-class tier, accessed DAX-style through that
// tier's file system.
type cacheCtl struct {
	tier *Tier
	file vfs.File
	mg   *cache.MGLRU

	mu        sync.Mutex
	slots     map[cache.Key]int64 // resident page -> slot index
	freeSlots []int64
	slotCount int64
}

func newCacheCtl(t *Tier, bytes int64) (*cacheCtl, error) {
	if t.Prof.Class != device.PM && t.Prof.Class != device.DRAM {
		return nil, fmt.Errorf("mux: SCM cache tier %s is not storage-class memory", t.FS.Name())
	}
	slots := bytes / BlockSize
	if slots < 1 {
		return nil, fmt.Errorf("mux: SCM cache of %d bytes holds no blocks", bytes)
	}
	f, err := t.FS.Create(CacheFilePath)
	if errors.Is(err, vfs.ErrExist) {
		f, err = t.FS.Open(CacheFilePath)
	}
	if err != nil {
		return nil, fmt.Errorf("mux: SCM cache file: %w", err)
	}
	// Preallocate so cache capacity is guaranteed (§2.5).
	if err := f.Truncate(slots * BlockSize); err != nil {
		return nil, fmt.Errorf("mux: SCM cache prealloc: %w", err)
	}
	ctl := &cacheCtl{
		tier:      t,
		file:      f,
		mg:        cache.New(int(slots)),
		slots:     make(map[cache.Key]int64),
		slotCount: slots,
	}
	for s := slots - 1; s >= 0; s-- {
		ctl.freeSlots = append(ctl.freeSlots, s)
	}
	return ctl, nil
}

// cacheable reports whether reads from the given tier should go through the
// cache (only tiers slower than the SCM itself benefit).
func (c *cacheCtl) cacheable(t *Tier) bool {
	return t.Prof.ReadLatency > c.tier.Prof.ReadLatency
}

// read serves dst from the cache where possible, filling missed blocks from
// the source handle and inserting them.
func (c *cacheCtl) read(ino uint64, srcTier int, src vfs.File, dst []byte, off int64) error {
	pos := off
	end := off + int64(len(dst))
	for pos < end {
		pg := pos / BlockSize
		pgOff := pos % BlockSize
		chunk := BlockSize - pgOff
		if rem := end - pos; chunk > rem {
			chunk = rem
		}
		out := dst[pos-off : pos-off+chunk]
		key := cache.Key{File: ino, Page: pg}

		c.mu.Lock()
		if c.mg.Lookup(key) { // counts the hit or miss
			slot := c.slots[key]
			// Hit: DAX read from the cache file on the SCM tier.
			if _, err := c.file.ReadAt(out, slot*BlockSize+pgOff); err != nil && !errors.Is(err, io.EOF) {
				c.mu.Unlock()
				return err
			}
			c.mu.Unlock()
			pos += chunk
			continue
		}
		c.mu.Unlock()

		// Miss: read the whole block from the slow tier.
		block := make([]byte, BlockSize)
		if _, err := src.ReadAt(block, pg*BlockSize); err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		copy(out, block[pgOff:pgOff+chunk])

		// Insert; evictions free their slot (clean cache: nothing to write
		// back, the authoritative copy lives on the slow tier).
		c.mu.Lock()
		if _, dup := c.slots[key]; !dup {
			victim, evicted := c.mg.Insert(key)
			if evicted {
				if vs, ok := c.slots[victim]; ok {
					c.freeSlots = append(c.freeSlots, vs)
					delete(c.slots, victim)
				}
			}
			if len(c.freeSlots) > 0 {
				s := c.freeSlots[len(c.freeSlots)-1]
				c.freeSlots = c.freeSlots[:len(c.freeSlots)-1]
				c.slots[key] = s
				if _, err := c.file.WriteAt(block, s*BlockSize); err != nil {
					c.mu.Unlock()
					return err
				}
			}
		}
		c.mu.Unlock()
		pos += chunk
	}
	return nil
}

// invalidate drops cached blocks overlapping [off, off+n) of the file
// (writes, truncates, punches, and committed migrations).
func (c *cacheCtl) invalidate(ino uint64, off, n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	first := off / BlockSize
	last := (off + n - 1) / BlockSize
	for pg := first; pg <= last; pg++ {
		key := cache.Key{File: ino, Page: pg}
		if slot, ok := c.slots[key]; ok {
			c.mg.Remove(key)
			c.freeSlots = append(c.freeSlots, slot)
			delete(c.slots, key)
		}
	}
}

// RemoveFile drops every cached block of the file.
func (c *cacheCtl) RemoveFile(ino uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mg.RemoveFile(ino)
	for key, slot := range c.slots {
		if key.File == ino {
			c.freeSlots = append(c.freeSlots, slot)
			delete(c.slots, key)
		}
	}
}

// Stats snapshots cache counters.
func (c *cacheCtl) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.mg.Stats()
	return CacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Slots:     c.slotCount,
		UsedSlots: len(c.slots),
	}
}
