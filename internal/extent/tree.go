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

import "sort"

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
// range. Zero or negative n is a no-op.
func (t *Tree[V]) Insert(off, n int64, v V) {
	if n <= 0 {
		return
	}
	end := off + n
	i := t.firstOverlapping(off)

	// Entries strictly before the insertion point stay.
	head := t.ents[:i]

	var mid []entry[V]
	// Left remainder of a straddling entry.
	if i < len(t.ents) && t.ents[i].off < off {
		mid = append(mid, entry[V]{t.ents[i].off, off, t.ents[i].val})
	}
	mid = append(mid, entry[V]{off, end, v})

	// Skip entries fully covered; keep the right remainder of the last
	// overlapped entry.
	j := i
	for j < len(t.ents) && t.ents[j].off < end {
		if t.ents[j].end > end {
			mid = append(mid, entry[V]{end, t.ents[j].end, t.ents[j].val})
		}
		j++
	}

	out := make([]entry[V], 0, len(head)+len(mid)+len(t.ents)-j)
	out = append(out, head...)
	out = append(out, mid...)
	out = append(out, t.ents[j:]...)
	t.ents = coalesce(out)
}

// Delete unmaps [off, off+n), splitting straddling entries.
func (t *Tree[V]) Delete(off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	i := t.firstOverlapping(off)
	head := t.ents[:i]

	var mid []entry[V]
	j := i
	for j < len(t.ents) && t.ents[j].off < end {
		e := t.ents[j]
		if e.off < off {
			mid = append(mid, entry[V]{e.off, off, e.val})
		}
		if e.end > end {
			mid = append(mid, entry[V]{end, e.end, e.val})
		}
		j++
	}

	out := make([]entry[V], 0, len(head)+len(mid)+len(t.ents)-j)
	out = append(out, head...)
	out = append(out, mid...)
	out = append(out, t.ents[j:]...)
	t.ents = out // nothing new to coalesce: deletion cannot join neighbors
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

// coalesce merges adjacent entries with equal values. Input must be sorted
// and non-overlapping.
func coalesce[V comparable](ents []entry[V]) []entry[V] {
	if len(ents) < 2 {
		return ents
	}
	out := ents[:1]
	for _, e := range ents[1:] {
		last := &out[len(out)-1]
		if last.end == e.off && last.val == e.val {
			last.end = e.end
		} else {
			out = append(out, e)
		}
	}
	return out
}
