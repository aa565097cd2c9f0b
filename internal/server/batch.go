package server

import (
	"errors"
	"io"
	"sort"

	"muxfs/internal/muxns"
	"muxfs/internal/vfs"
)

// maxCoalesceSpan caps a merged dispatch: adjacent sub-ops fuse until the
// combined range would exceed 1MiB, keeping the buffer and the downward
// I/O bounded.
const maxCoalesceSpan = 1 << 20

// serveBatch executes a batch frame's sub-ops: it groups them by (handle,
// direction), sorts each group by offset, merges adjacent ranges into
// single downward dispatches, and reports per-sub-op results. Reads merge
// across overlaps (one ReadAt serves every sub-op in the run); writes
// merge only exactly-abutting ranges — overlapping writes have an
// order-dependent outcome the wire format does not define, so they stay
// separate dispatches in offset order.
func (s *Server) serveBatch(t *task) []muxns.NSSubResult {
	subs := t.req.Batch
	s.batchSubOps.Add(int64(len(subs)))
	results := make([]muxns.NSSubResult, len(subs))
	type groupKey struct {
		handle uint64
		write  bool
	}
	groups := map[groupKey][]int{}
	order := []groupKey{}
	for i := range subs {
		results[i].ID = subs[i].ID
		switch subs[i].Op {
		case muxns.NSRead, muxns.NSWrite:
		default:
			results[i].Code, results[i].Msg = muxns.EncodeStatus(
				errors.New("muxns: batch sub-op must be read or write"))
			continue
		}
		k := groupKey{handle: subs[i].Handle, write: subs[i].Op == muxns.NSWrite}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		idxs := groups[k]
		h, err := t.c.handle(k.handle)
		if err != nil {
			code, msg := muxns.EncodeStatus(err)
			for _, i := range idxs {
				results[i].Code, results[i].Msg = code, msg
			}
			continue
		}
		sort.SliceStable(idxs, func(a, b int) bool { return subs[idxs[a]].Off < subs[idxs[b]].Off })
		if k.write {
			s.batchWrites(t, h, subs, idxs, results)
		} else {
			s.batchReads(t, h.f, subs, idxs, results)
		}
	}
	return results
}

// batchReads serves one handle's read sub-ops (sorted by offset), merging
// runs whose ranges touch or overlap into one ReadAt.
func (s *Server) batchReads(t *task, f vfs.File, subs []muxns.NSSubOp, idxs []int, results []muxns.NSSubResult) {
	for start := 0; start < len(idxs); {
		first := subs[idxs[start]]
		runStart := first.Off
		runEnd := first.Off + first.N
		end := start + 1
		for end < len(idxs) {
			nxt := subs[idxs[end]]
			if nxt.Off > runEnd {
				break
			}
			newEnd := runEnd
			if nxt.Off+nxt.N > newEnd {
				newEnd = nxt.Off + nxt.N
			}
			if newEnd-runStart > maxCoalesceSpan {
				break
			}
			runEnd = newEnd
			end++
		}
		run := idxs[start:end]
		s.batchDisp.Add(1)
		s.batchSaved.Add(int64(len(run) - 1))

		buf := t.buf(int(runEnd - runStart))
		n, err := f.ReadAt(buf, runStart)
		s.bytesRead.Add(int64(n))
		eof := errors.Is(err, io.EOF)
		if eof {
			err = nil
		}
		avail := runStart + int64(n)
		for _, i := range run {
			sub := subs[i]
			r := &results[i]
			r.Coalesced = len(run) > 1
			if err != nil {
				r.Code, r.Msg = muxns.EncodeStatus(err)
				continue
			}
			lo, hi := sub.Off, sub.Off+sub.N
			if lo > avail {
				lo = avail
			}
			if hi > avail {
				hi = avail
				// The sub-op asked past what the file held: that is this
				// sub-op's EOF even though siblings were fully served.
				r.EOF = eof
			}
			// buf is the task's own pooled buffer, so results may alias it
			// rather than paying a per-sub-op copy: it is not recycled
			// until the reply frame carrying them has been flushed.
			r.Data = buf[lo-runStart : hi-runStart : hi-runStart]
			r.N = hi - lo
		}
		start = end
	}
}

// batchWrites serves one handle's write sub-ops (sorted by offset),
// merging exactly-abutting ranges into one WriteAt.
func (s *Server) batchWrites(t *task, h nsHandle, subs []muxns.NSSubOp, idxs []int, results []muxns.NSSubResult) {
	defer s.invalidate(h.path)
	for start := 0; start < len(idxs); {
		first := subs[idxs[start]]
		runStart := first.Off
		runEnd := first.Off + int64(len(first.Data))
		end := start + 1
		for end < len(idxs) {
			nxt := subs[idxs[end]]
			if nxt.Off != runEnd || runEnd-runStart+int64(len(nxt.Data)) > maxCoalesceSpan {
				break
			}
			runEnd += int64(len(nxt.Data))
			end++
		}
		run := idxs[start:end]
		s.batchDisp.Add(1)
		s.batchSaved.Add(int64(len(run) - 1))

		var n int
		var err error
		if len(run) == 1 {
			n, err = h.f.WriteAt(first.Data, runStart)
		} else {
			buf := t.buf(int(runEnd - runStart))
			pos := 0
			for _, i := range run {
				pos += copy(buf[pos:], subs[i].Data)
			}
			n, err = h.f.WriteAt(buf, runStart)
		}
		s.bytesWritten.Add(int64(n))
		written := runStart + int64(n)
		for _, i := range run {
			sub := subs[i]
			r := &results[i]
			r.Coalesced = len(run) > 1
			lo, hi := sub.Off, sub.Off+int64(len(sub.Data))
			got := hi
			if got > written {
				got = written
			}
			if got < lo {
				got = lo
			}
			r.N = got - lo
			// A short merged write errors every sub-op that lost bytes.
			if err != nil && r.N < hi-lo {
				r.Code, r.Msg = muxns.EncodeStatus(err)
			} else if err != nil && n == 0 {
				r.Code, r.Msg = muxns.EncodeStatus(err)
			}
		}
		start = end
	}
}
