package alloc

import "fmt"

// ExtentAlloc is a first-fit free-extent allocator over a byte (or block)
// space [0, size). It hands out variable-length runs and merges freed
// neighbors, mirroring XFS's extent-based space management. Not safe for
// concurrent use.
type ExtentAlloc struct {
	size int64
	free []run // sorted, disjoint, coalesced free runs
}

type run struct{ off, n int64 }

// NewExtentAlloc creates an allocator with the whole space free.
func NewExtentAlloc(size int64) *ExtentAlloc {
	if size < 0 {
		size = 0
	}
	e := &ExtentAlloc{size: size}
	if size > 0 {
		e.free = []run{{0, size}}
	}
	return e
}

// Size returns the managed space in bytes.
func (e *ExtentAlloc) Size() int64 { return e.size }

// FreeBytes returns the total free space.
func (e *ExtentAlloc) FreeBytes() int64 {
	var total int64
	for _, r := range e.free {
		total += r.n
	}
	return total
}

// Alloc allocates up to n bytes from the first fitting run. It returns the
// offset and length actually granted; got < n when no single run is large
// enough (callers loop, building multi-extent files). Fails only when no
// free space remains at all.
func (e *ExtentAlloc) Alloc(n int64) (off, got int64, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: invalid size %d", ErrNoSpace, n)
	}
	// First fit: first run that satisfies the whole request.
	bestIdx := -1
	for i, r := range e.free {
		if r.n >= n {
			bestIdx = i
			break
		}
		if bestIdx == -1 || r.n > e.free[bestIdx].n {
			bestIdx = i // remember the largest as fallback
		}
	}
	if bestIdx == -1 {
		return 0, 0, ErrNoSpace
	}
	r := &e.free[bestIdx]
	got = n
	if got > r.n {
		got = r.n
	}
	off = r.off
	r.off += got
	r.n -= got
	if r.n == 0 {
		e.free = append(e.free[:bestIdx], e.free[bestIdx+1:]...)
	}
	return off, got, nil
}

// Free releases [off, off+n), coalescing with neighbors. Freeing space that
// is already free panics (allocator corruption).
func (e *ExtentAlloc) Free(off, n int64) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > e.size {
		panic(fmt.Sprintf("alloc: free out of range [%d,%d)", off, off+n))
	}
	// Find insertion point.
	i := 0
	for i < len(e.free) && e.free[i].off < off {
		i++
	}
	// Overlap checks against both neighbors.
	if i > 0 && e.free[i-1].off+e.free[i-1].n > off {
		panic(fmt.Sprintf("alloc: double free at %d", off))
	}
	if i < len(e.free) && off+n > e.free[i].off {
		panic(fmt.Sprintf("alloc: double free at %d", off))
	}
	e.free = append(e.free, run{})
	copy(e.free[i+1:], e.free[i:])
	e.free[i] = run{off, n}
	// Coalesce with right then left.
	if i+1 < len(e.free) && e.free[i].off+e.free[i].n == e.free[i+1].off {
		e.free[i].n += e.free[i+1].n
		e.free = append(e.free[:i+1], e.free[i+2:]...)
	}
	if i > 0 && e.free[i-1].off+e.free[i-1].n == e.free[i].off {
		e.free[i-1].n += e.free[i].n
		e.free = append(e.free[:i], e.free[i+1:]...)
	}
}

// Reserve force-allocates [off, off+n) (recovery rebuild). Reserving space
// that is partially allocated already silently reserves the free parts.
func (e *ExtentAlloc) Reserve(off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	// Not filtered in place: a reserve inside one run splits it in two,
	// which would overwrite the next run before the loop reads it.
	out := make([]run, 0, len(e.free)+1)
	for _, r := range e.free {
		rEnd := r.off + r.n
		if rEnd <= off || r.off >= end {
			out = append(out, r)
			continue
		}
		if r.off < off {
			out = append(out, run{r.off, off - r.off})
		}
		if rEnd > end {
			out = append(out, run{end, rEnd - end})
		}
	}
	e.free = out
}

// FragmentCount returns the number of free runs (fragmentation metric).
func (e *ExtentAlloc) FragmentCount() int { return len(e.free) }
