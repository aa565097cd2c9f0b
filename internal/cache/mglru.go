// Package cache implements Multi-generational LRU (MGLRU) replacement —
// the algorithm the paper adopts for Mux's SCM cache (§2.5), and the one
// Linux uses for its page cache.
//
// Entries live in generations: insertion puts a page in the youngest
// generation, access promotes it back to the youngest, and aging shifts
// everything one generation older. Eviction scans from the oldest
// generation, so a page must survive several aging cycles untouched before
// it becomes a victim — cheap scan cost, better scan resistance than plain
// LRU. As in Linux, each generation is an ordered list: pages enter at the
// tail, aging appends a generation behind the older one it merges into,
// and eviction takes the head, so the victim is always the same page for
// the same access history.
package cache

import "sync"

// NumGens is the number of generations (Linux's default MGLRU depth).
const NumGens = 4

// Key identifies a cached page.
type Key struct {
	File uint64
	Page int64
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Ages      int64
	Entries   int
}

// MGLRU tracks page residency with multi-generational replacement. It
// stores keys only; the owner (Mux's Cache Controller) maps keys to slots
// in the SCM cache file. Safe for concurrent use.
type MGLRU struct {
	mu       sync.Mutex
	capacity int
	gens     [NumGens]*genList // gens[0] = youngest
	where    map[Key]*entry
	accesses int // accesses since last automatic aging
	ageEvery int

	hits, misses, evictions, ages int64
}

// entry is one resident key, linked into its generation's list.
type entry struct {
	key        Key
	gen        *genList
	prev, next *entry
}

// genList is one generation: a circular doubly linked list, oldest entry
// first, around a sentinel.
type genList struct {
	root entry
}

func newGenList() *genList {
	l := &genList{}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

func (l *genList) empty() bool { return l.root.next == &l.root }

// pushBack appends e as the list's newest entry.
func (l *genList) pushBack(e *entry) {
	e.gen = l
	e.prev, e.next = l.root.prev, &l.root
	l.root.prev.next = e
	l.root.prev = e
}

func (l *genList) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next, e.gen = nil, nil, nil
}

// appendList moves every entry of src, in order, behind l's entries.
func (l *genList) appendList(src *genList) {
	for !src.empty() {
		e := src.root.next
		src.remove(e)
		l.pushBack(e)
	}
}

// New creates an MGLRU tracking at most capacity entries. Aging runs
// automatically every capacity/NumGens accesses (and can be forced with
// Age).
func New(capacity int) *MGLRU {
	if capacity < 1 {
		capacity = 1
	}
	m := &MGLRU{
		capacity: capacity,
		where:    make(map[Key]*entry),
		ageEvery: capacity/NumGens + 1,
	}
	for i := range m.gens {
		m.gens[i] = newGenList()
	}
	return m
}

// Lookup reports whether k is resident and, if so, promotes it to the
// youngest generation.
func (m *MGLRU) Lookup(k Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.where[k]
	if !ok {
		m.misses++
		return false
	}
	m.hits++
	m.promote(e)
	m.tick()
	return true
}

// promote moves e to the tail of the youngest generation, unless it is
// already there. Caller holds m.mu.
func (m *MGLRU) promote(e *entry) {
	if e.gen != m.gens[0] {
		e.gen.remove(e)
		m.gens[0].pushBack(e)
	}
}

// Contains reports residency without promotion or stats impact.
func (m *MGLRU) Contains(k Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.where[k]
	return ok
}

// Insert adds k to the youngest generation, returning the evicted key (if
// the cache was full) with evicted=true. Re-inserting a resident key just
// promotes it.
func (m *MGLRU) Insert(k Key) (victim Key, evicted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.where[k]; ok {
		m.promote(e)
		return Key{}, false
	}
	if len(m.where) >= m.capacity {
		victim, evicted = m.evictLocked()
	}
	e := &entry{key: k}
	m.gens[0].pushBack(e)
	m.where[k] = e
	m.tick()
	return victim, evicted
}

// Remove drops k (file truncated/removed or block migrated).
func (m *MGLRU) Remove(k Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.where[k]; ok {
		e.gen.remove(e)
		delete(m.where, k)
	}
}

// RemoveFile drops every page of the given file.
func (m *MGLRU) RemoveFile(file uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, e := range m.where {
		if k.File == file {
			e.gen.remove(e)
			delete(m.where, k)
		}
	}
}

// Age shifts every generation one step older; the oldest absorbs overflow.
func (m *MGLRU) Age() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ageLocked()
}

func (m *MGLRU) ageLocked() {
	m.ages++
	last := NumGens - 1
	// Merge the two oldest — the younger queues behind the oldest — then
	// shift; the emptied list becomes the new youngest generation.
	m.gens[last].appendList(m.gens[last-1])
	emptied := m.gens[last-1]
	for i := last - 1; i > 0; i-- {
		m.gens[i] = m.gens[i-1]
	}
	m.gens[0] = emptied
}

// tick runs automatic aging. Caller holds m.mu.
func (m *MGLRU) tick() {
	m.accesses++
	if m.accesses >= m.ageEvery {
		m.accesses = 0
		m.ageLocked()
	}
}

// evictLocked removes the head (oldest entry) of the oldest non-empty
// generation.
func (m *MGLRU) evictLocked() (Key, bool) {
	for i := NumGens - 1; i >= 0; i-- {
		if l := m.gens[i]; !l.empty() {
			e := l.root.next
			l.remove(e)
			delete(m.where, e.key)
			m.evictions++
			return e.key, true
		}
	}
	return Key{}, false
}

// Len returns the number of resident entries.
func (m *MGLRU) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.where)
}

// Stats returns a counters snapshot.
func (m *MGLRU) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Ages: m.ages, Entries: len(m.where)}
}
