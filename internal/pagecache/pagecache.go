// Package pagecache implements the per-file-system DRAM page cache used by
// xfslite and extlite.
//
// The paper's §2.5 observation — each native file system keeps its own DRAM
// page cache that cannot be shared across devices — is modeled directly:
// every FS instance owns a Cache. Cache hits charge DRAM-class cost to the
// virtual clock, which is what produces the paper's §3.2 result shape where
// Mux's fixed indirection cost is large *relative* to a cache-hit read and
// negligible relative to an HDD access.
//
// Only a dirty page holds bytes, in a page of the process's page arena
// (bufpool.GetPage), outside the Go heap. A clean page equals what the
// simulated device holds at the page's mapping, and the device already
// keeps those bytes in process memory, so a clean entry keeps just its
// key, its LRU position and its share of the statistics; its owner serves
// a clean hit by copying the bytes off the device for free (device.Peek).
// Capacity, LRU order, hits, misses, evictions and charged costs are
// those of a cache that stores every page.
package pagecache

import (
	"cmp"
	"container/list"
	"slices"
	"sync"
	"time"

	"muxfs/internal/bufpool"
	"muxfs/internal/simclock"
)

// PageSize is the caching granule.
const PageSize = bufpool.PageSize

// Key identifies a cached page.
type Key struct {
	File uint64 // FS-assigned file (inode) ID
	Page int64  // page index within the file
}

// Evicted is a dirty page Put chose as its victim. It stays resident until
// the owner has written Data back and called Evict.
type Evicted struct {
	Key  Key
	Data []byte
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Pages     int
}

type page struct {
	key Key
	buf *[PageSize]byte // an arena page (bufpool.GetPage) while dirty; nil while clean
}

// Cache is a fixed-capacity LRU page cache. Safe for concurrent use. A
// Cache dropped with dirty pages returns their buffers to the page arena
// (bufpool.ReleaseOnDrop).
type Cache struct {
	mu       sync.Mutex
	capacity int // max pages
	clk      *simclock.Clock
	hitCost  time.Duration // DRAM access cost charged on hit

	lru   *list.List // front = most recent; values are *page
	pages map[Key]*list.Element
	// dirty holds the keys of the pages with bytes, so write-back visits
	// only them, not every cached page.
	dirty map[Key]struct{}

	hits, misses, evictions int64
}

// New creates a cache holding capacityPages pages. Hits charge hitCost to
// clk (pass the DRAM profile's access latency).
func New(capacityPages int, clk *simclock.Clock, hitCost time.Duration) *Cache {
	if capacityPages < 1 {
		capacityPages = 1
	}
	c := &Cache{
		capacity: capacityPages,
		clk:      clk,
		hitCost:  hitCost,
		lru:      list.New(),
		pages:    make(map[Key]*list.Element),
		dirty:    make(map[Key]struct{}),
	}
	bufpool.ReleaseOnDrop(c, (*Cache).InvalidateAll)
	return c
}

// data returns the page's bytes, nil for a clean page.
func (p *page) data() []byte {
	if p.buf == nil {
		return nil
	}
	return p.buf[:]
}

// setClean recycles a dirty page's buffer. Caller holds c.mu.
func (c *Cache) setClean(p *page) {
	if p.buf != nil {
		bufpool.PutPage(p.buf)
		p.buf = nil
		delete(c.dirty, p.key)
	}
}

// fill makes p dirty with the contents data, zero-extended to PageSize.
// Caller holds c.mu.
func (c *Cache) fill(p *page, data []byte) {
	if p.buf == nil {
		p.buf = bufpool.GetPage()
		c.dirty[p.key] = struct{}{}
	}
	n := copy(p.buf[:], data)
	clear(p.buf[n:])
}

// Get looks k up, charging a hit the DRAM cost and moving it to the front
// of the LRU order. On a hit it returns the page's bytes if the page is
// dirty and nil if it is clean: a clean page's bytes are on the device at
// the file's current mapping, so read them there. The dirty bytes are the
// cache's own buffer; the owner reads or updates them in place while it
// holds its FS lock. A miss returns (nil, false).
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
	return el.Value.(*page).data(), true
}

// Peek is Get without the LRU move, the statistics or the clock charge;
// write paths use it. Like Get, it returns nil for a resident clean page.
func (c *Cache) Peek(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[k]; ok {
		return el.Value.(*page).data(), true
	}
	return nil, false
}

// Put inserts page k, or replaces its contents if resident, and charges
// the DRAM copy-in cost. A dirty page keeps a copy of data (PageSize bytes
// or fewer; short pages are zero-extended); a clean page keeps none, its
// bytes being the device's; a dirty page stays dirty when replaced by
// clean data.
//
// When the insert takes the cache past its capacity, the least recently
// used page is the victim. A clean victim is dropped. A dirty victim stays
// resident and is returned: the owner writes its Data back and then calls
// Evict. If that write-back fails the page stays dirty, and the cache
// stays over capacity until a later Put evicts it.
func (c *Cache) Put(k Key, data []byte, dirty bool) (ev Evicted, mustWrite bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clk.Advance(c.hitCost) // DRAM copy-in cost

	if el, ok := c.pages[k]; ok {
		if p := el.Value.(*page); dirty || p.buf != nil {
			c.fill(p, data)
		}
		c.lru.MoveToFront(el)
		return Evicted{}, false
	}

	p := &page{key: k}
	if dirty {
		c.fill(p, data)
	}
	c.pages[k] = c.lru.PushFront(p)

	for c.lru.Len() > c.capacity {
		victim := c.lru.Back().Value.(*page)
		if victim.buf != nil {
			return Evicted{Key: victim.key, Data: victim.buf[:]}, true
		}
		c.remove(c.lru.Back())
		c.evictions++
	}
	return Evicted{}, false
}

// Evict drops page k once its write-back has succeeded.
func (c *Cache) Evict(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[k]; ok {
		c.remove(el)
		c.evictions++
	}
}

// MarkDirty makes resident page k dirty with the contents data (a full
// page image): the write hit of a clean page, which has no buffer to
// update in place. Unlike Put it charges nothing and keeps the LRU order.
// It is a no-op if the page is not resident.
func (c *Cache) MarkDirty(k Key, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[k]; ok {
		c.fill(el.Value.(*page), data)
	}
}

// MarkClean drops page k's bytes after the device holds them: call it only
// once the page's write-back has succeeded.
func (c *Cache) MarkClean(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[k]; ok {
		c.setClean(el.Value.(*page))
	}
}

// AppendDirtyPages appends the keys of all dirty pages — of one file, or of
// every file when all is true — to dst, sorted by (file, page), and returns
// the extended slice. Write-back uses the sorted order so device writes
// sequentialize (the elevator effect), and passes its previous result back
// as dst[:0] so steady-state flushes allocate nothing. It visits only the
// dirty pages, however many clean ones are cached.
func (c *Cache) AppendDirtyPages(dst []Key, file uint64, all bool) []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(dst)
	for k := range c.dirty {
		if all || k.File == file {
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

// remove unlinks a page and recycles its buffer. Caller holds c.mu.
func (c *Cache) remove(el *list.Element) {
	p := el.Value.(*page)
	c.setClean(p)
	c.lru.Remove(el)
	delete(c.pages, p.key)
}

// InvalidateFile drops every page of file (truncate, remove, or migration
// moved the blocks away).
func (c *Cache) InvalidateFile(file uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.pages {
		if k.File == file {
			c.remove(el)
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
		if el, ok := c.pages[Key{File: file, Page: pg}]; ok {
			c.remove(el)
		}
	}
}

// InvalidateAll empties the cache (simulated DRAM loss on crash).
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.pages {
		c.setClean(el.Value.(*page))
	}
	c.lru.Init()
	c.pages = make(map[Key]*list.Element)
}

// Stats returns a snapshot of hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Pages: c.lru.Len()}
}
