// Package extent implements an extent tree: an ordered map from
// non-overlapping byte ranges to values.
//
// The paper uses extent trees in three places, and so does this repo: the
// Mux Block Lookup Table maps file offsets to the tier holding the current
// version of each block (§2.2, "we use an extent tree as a high-performance
// data structure"), xfslite uses one for file block maps and free space, and
// the Strata baseline uses a single global one (whose coarse locking is one
// of the performance problems §3.1 attributes to Strata).
package extent

import (
	"slices"
	"sort"
)

type entry[V comparable] struct {
	off, end int64 // [off, end)
	val      V
}

// Tree maps non-overlapping half-open byte ranges [off, end) to values.
// Inserting over an existing range splits or replaces it; adjacent ranges
// with equal values coalesce. The zero value is an empty tree. Tree is not
// safe for concurrent use; callers synchronize (Mux keeps one per file under
// the file's bookkeeping lock).
type Tree[V comparable] struct {
	ents []entry[V]
}

// Segment is one run returned by a range walk. Hole marks unmapped gaps.
type Segment[V comparable] struct {
	Off  int64
	Len  int64
	Val  V
	Hole bool
}

// End returns the first offset past the segment.
func (s Segment[V]) End() int64 { return s.Off + s.Len }

// firstOverlapping returns the index of the first entry with end > off.
func (t *Tree[V]) firstOverlapping(off int64) int {
	return sort.Search(len(t.ents), func(i int) bool { return t.ents[i].end > off })
}

// Insert maps [off, off+n) to v, replacing any previous mappings in the
// range. Zero or negative n is a no-op. It splices the run into the
// entry slice in place, growing it only when the slice is full.
func (t *Tree[V]) Insert(off, n int64, v V) {
	if n <= 0 {
		return
	}
	end := off + n
	i, j := t.overlapping(off, end)

	// The replacement for ents[i:j]: the left remainder of a straddling
	// entry, the new run, the right remainder of the last overlapped one.
	// A remainder with v's value joins the new run.
	var repl [3]entry[V]
	k := 0
	if i < j && t.ents[i].off < off {
		if e := t.ents[i]; e.val == v {
			off = e.off
		} else {
			repl[k] = entry[V]{e.off, off, e.val}
			k++
		}
	}
	at := k
	repl[k] = entry[V]{off, end, v}
	k++
	if i < j && t.ents[j-1].end > end {
		if e := t.ents[j-1]; e.val == v {
			repl[at].end = e.end
		} else {
			repl[k] = entry[V]{end, e.end, e.val}
			k++
		}
	}
	// The tree is coalesced outside the splice, so only the entries on
	// either side of it can join the replacement.
	if i > 0 && t.ents[i-1].end == repl[0].off && t.ents[i-1].val == repl[0].val {
		repl[0].off = t.ents[i-1].off
		i--
	}
	if j < len(t.ents) && repl[k-1].end == t.ents[j].off && repl[k-1].val == t.ents[j].val {
		repl[k-1].end = t.ents[j].end
		j++
	}
	t.ents = slices.Replace(t.ents, i, j, repl[:k]...)
}

// Delete unmaps [off, off+n), splitting straddling entries in place.
func (t *Tree[V]) Delete(off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	i, j := t.overlapping(off, end)
	if i == j {
		return
	}
	var repl [2]entry[V]
	k := 0
	if e := t.ents[i]; e.off < off {
		repl[k] = entry[V]{e.off, off, e.val}
		k++
	}
	if e := t.ents[j-1]; e.end > end {
		repl[k] = entry[V]{end, e.end, e.val}
		k++
	}
	// Nothing new to coalesce: deletion cannot join neighbors.
	t.ents = slices.Replace(t.ents, i, j, repl[:k]...)
}

// overlapping returns the index range [i, j) of the entries that overlap
// [off, end).
func (t *Tree[V]) overlapping(off, end int64) (i, j int) {
	i = t.firstOverlapping(off)
	j = i
	for j < len(t.ents) && t.ents[j].off < end {
		j++
	}
	return i, j
}

// Lookup returns the value and full mapped run containing off.
func (t *Tree[V]) Lookup(off int64) (v V, seg Segment[V], ok bool) {
	i := t.firstOverlapping(off)
	if i >= len(t.ents) || t.ents[i].off > off {
		return v, Segment[V]{}, false
	}
	e := t.ents[i]
	return e.val, Segment[V]{Off: e.off, Len: e.end - e.off, Val: e.val}, true
}

// Segments walks [off, off+n) in order, returning mapped runs clipped to the
// range and Hole segments for unmapped gaps. The segments exactly tile the
// requested range.
func (t *Tree[V]) Segments(off, n int64) []Segment[V] { return t.AppendSegments(nil, off, n) }

// AppendSegments appends the segments Segments(off, n) would return to dst
// and returns the extended slice; walking into a reused dst[:0] allocates
// nothing once dst has grown to the walk's size.
func (t *Tree[V]) AppendSegments(dst []Segment[V], off, n int64) []Segment[V] {
	if n <= 0 {
		return dst
	}
	end := off + n
	pos := off
	for i := t.firstOverlapping(off); i < len(t.ents) && pos < end; i++ {
		e := t.ents[i]
		if e.off >= end {
			break
		}
		if e.off > pos {
			dst = append(dst, Segment[V]{Off: pos, Len: e.off - pos, Hole: true})
			pos = e.off
		}
		segEnd := e.end
		if segEnd > end {
			segEnd = end
		}
		dst = append(dst, Segment[V]{Off: pos, Len: segEnd - pos, Val: e.val})
		pos = segEnd
	}
	if pos < end {
		dst = append(dst, Segment[V]{Off: pos, Len: end - pos, Hole: true})
	}
	return dst
}

// Walk calls fn for every mapped run in offset order until fn returns false.
func (t *Tree[V]) Walk(fn func(off, n int64, v V) bool) {
	for _, e := range t.ents {
		if !fn(e.off, e.end-e.off, e.val) {
			return
		}
	}
}

// Len returns the number of distinct mapped runs.
func (t *Tree[V]) Len() int { return len(t.ents) }

// MappedBytes returns the total number of mapped bytes.
func (t *Tree[V]) MappedBytes() int64 {
	var total int64
	for _, e := range t.ents {
		total += e.end - e.off
	}
	return total
}

// Bounds returns the lowest mapped offset and the highest mapped end
// (0, 0 for an empty tree).
func (t *Tree[V]) Bounds() (lo, hi int64) {
	if len(t.ents) == 0 {
		return 0, 0
	}
	return t.ents[0].off, t.ents[len(t.ents)-1].end
}

// Clone returns a deep copy.
func (t *Tree[V]) Clone() *Tree[V] {
	c := &Tree[V]{ents: make([]entry[V], len(t.ents))}
	copy(c.ents, t.ents)
	return c
}

// Clear removes all mappings.
func (t *Tree[V]) Clear() { t.ents = t.ents[:0] }
