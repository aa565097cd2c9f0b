// Package pagecache implements the per-file-system DRAM page cache used by
// xfslite and extlite.
//
// The paper's §2.5 observation — each native file system keeps its own DRAM
// page cache that cannot be shared across devices — is modeled directly:
// every FS instance owns a Cache. Cache hits charge DRAM-class cost to the
// virtual clock, which is what produces the paper's §3.2 result shape where
// Mux's fixed indirection cost is large *relative* to a cache-hit read and
// negligible relative to an HDD access.
package pagecache

import (
	"cmp"
	"container/list"
	"slices"
	"sync"
	"time"

	"muxfs/internal/simclock"
)

// PageSize is the caching granule.
const PageSize = 4096

// Key identifies a cached page.
type Key struct {
	File uint64 // FS-assigned file (inode) ID
	Page int64  // page index within the file
}

// Evicted describes a page pushed out by Put; the owner must write dirty
// evictions back to the device.
type Evicted struct {
	Key   Key
	Data  []byte
	Dirty bool
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Pages     int
}

type page struct {
	key   Key
	data  []byte
	dirty bool
}

// Cache is a fixed-capacity LRU page cache. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int // max pages
	clk      *simclock.Clock
	hitCost  time.Duration // DRAM access cost charged on hit

	lru   *list.List // front = most recent; values are *page
	pages map[Key]*list.Element

	hits, misses, evictions int64
}

// New creates a cache holding capacityPages pages. Hits charge hitCost to
// clk (pass the DRAM profile's access latency).
func New(capacityPages int, clk *simclock.Clock, hitCost time.Duration) *Cache {
	if capacityPages < 1 {
		capacityPages = 1
	}
	return &Cache{
		capacity: capacityPages,
		clk:      clk,
		hitCost:  hitCost,
		lru:      list.New(),
		pages:    make(map[Key]*list.Element),
	}
}

// Get returns the cached page data for k, or (nil, false) on miss. The
// returned slice is the cache's own page; callers may read and, for write
// hits combined with MarkDirty, update it in place under the FS's file lock.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.pages[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.clk.Advance(c.hitCost)
	c.lru.MoveToFront(el)
	return el.Value.(*page).data, true
}

// Contains reports whether k is cached without touching LRU order or stats.
func (c *Cache) Contains(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.pages[k]
	return ok
}

// Put inserts (or replaces) page k with data, which must be PageSize bytes
// or shorter (short pages are zero-extended). It returns any evicted page so
// the caller can write dirty contents back to the device.
func (c *Cache) Put(k Key, data []byte, dirty bool) (ev Evicted, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clk.Advance(c.hitCost) // DRAM copy-in cost

	if el, ok := c.pages[k]; ok {
		p := el.Value.(*page)
		copy(p.data, data)
		for i := len(data); i < PageSize; i++ {
			p.data[i] = 0
		}
		p.dirty = p.dirty || dirty
		c.lru.MoveToFront(el)
		return Evicted{}, false
	}

	buf := make([]byte, PageSize)
	copy(buf, data)
	p := &page{key: k, data: buf, dirty: dirty}
	c.pages[k] = c.lru.PushFront(p)

	if c.lru.Len() <= c.capacity {
		return Evicted{}, false
	}
	tail := c.lru.Back()
	victim := tail.Value.(*page)
	c.lru.Remove(tail)
	delete(c.pages, victim.key)
	c.evictions++
	return Evicted{Key: victim.key, Data: victim.data, Dirty: victim.dirty}, true
}

// MarkDirty flags a cached page dirty (after an in-place write hit).
// It is a no-op if the page is not resident.
func (c *Cache) MarkDirty(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[k]; ok {
		el.Value.(*page).dirty = true
	}
}

// FlushFile calls write for every dirty page of file, in unspecified order,
// and marks pages clean as write succeeds. It stops at the first error.
func (c *Cache) FlushFile(file uint64, write func(Key, []byte) error) error {
	c.mu.Lock()
	var dirty []*page
	for _, el := range c.pages {
		p := el.Value.(*page)
		if p.key.File == file && p.dirty {
			dirty = append(dirty, p)
		}
	}
	c.mu.Unlock()

	for _, p := range dirty {
		if err := write(p.key, p.data); err != nil {
			return err
		}
		c.mu.Lock()
		p.dirty = false
		c.mu.Unlock()
	}
	return nil
}

// FlushAll flushes every dirty page in the cache.
func (c *Cache) FlushAll(write func(Key, []byte) error) error {
	c.mu.Lock()
	var dirty []*page
	for _, el := range c.pages {
		p := el.Value.(*page)
		if p.dirty {
			dirty = append(dirty, p)
		}
	}
	c.mu.Unlock()
	for _, p := range dirty {
		if err := write(p.key, p.data); err != nil {
			return err
		}
		c.mu.Lock()
		p.dirty = false
		c.mu.Unlock()
	}
	return nil
}

// AppendDirtyPages appends the keys of all dirty pages — of one file, or of
// every file when all is true — to dst, sorted by (file, page), and returns
// the extended slice. Write-back uses the sorted order so device writes
// sequentialize (the elevator effect), and passes its previous result back
// as dst[:0] so steady-state flushes allocate nothing.
func (c *Cache) AppendDirtyPages(dst []Key, file uint64, all bool) []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(dst)
	for k, el := range c.pages {
		if el.Value.(*page).dirty && (all || k.File == file) {
			dst = append(dst, k)
		}
	}
	slices.SortFunc(dst[n:], func(a, b Key) int {
		if a.File != b.File {
			return cmp.Compare(a.File, b.File)
		}
		return cmp.Compare(a.Page, b.Page)
	})
	return dst
}

// Peek returns the page data for k without touching LRU order, hit/miss
// stats, or clock costs. Write-back paths use it.
func (c *Cache) Peek(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[k]; ok {
		return el.Value.(*page).data, true
	}
	return nil, false
}

// MarkClean clears the dirty flag after a successful write-back.
func (c *Cache) MarkClean(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[k]; ok {
		el.Value.(*page).dirty = false
	}
}

// DirtyCount returns the number of dirty resident pages.
func (c *Cache) DirtyCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, el := range c.pages {
		if el.Value.(*page).dirty {
			n++
		}
	}
	return n
}

// InvalidateFile drops every page of file (truncate, remove, or migration
// moved the blocks away).
func (c *Cache) InvalidateFile(file uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.pages {
		if k.File == file {
			c.lru.Remove(el)
			delete(c.pages, k)
		}
	}
}

// InvalidateRange drops cached pages of file overlapping [off, off+n).
func (c *Cache) InvalidateRange(file uint64, off, n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	first := off / PageSize
	last := (off + n - 1) / PageSize
	for pg := first; pg <= last; pg++ {
		k := Key{File: file, Page: pg}
		if el, ok := c.pages[k]; ok {
			c.lru.Remove(el)
			delete(c.pages, k)
		}
	}
}

// InvalidateAll empties the cache (simulated DRAM loss on crash).
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.pages = make(map[Key]*list.Element)
}

// Stats returns a snapshot of hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Pages: c.lru.Len()}
}
