package ec

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/vfs"
)

// stripeFile is an open handle on a striped file: per-node handles are
// opened lazily and cached; a generation check reopens them after a node
// is replaced.
type stripeFile struct {
	ss     *StripeSet
	path   string
	closed atomic.Bool
	hmu    []sync.Mutex // per-node handle lock
	nf     []vfs.File
	ngen   []int64
}

var _ vfs.File = (*stripeFile)(nil)

func (ss *StripeSet) newFile(path string) *stripeFile {
	n := len(ss.nodes)
	return &stripeFile{
		ss:   ss,
		path: path,
		hmu:  make([]sync.Mutex, n),
		nf:   make([]vfs.File, n),
		ngen: make([]int64, n),
	}
}

// Path returns the path the handle was opened with.
func (f *stripeFile) Path() string { return f.path }

// handle returns the cached per-node file handle, opening (and when
// create is set, creating) it as needed. Caller is inside a nodeCall.
func (f *stripeFile) handle(i int, fs vfs.FileSystem, create bool) (vfs.File, error) {
	f.hmu[i].Lock()
	defer f.hmu[i].Unlock()
	gen := f.ss.nodes[i].gen.Load()
	if f.nf[i] != nil && f.ngen[i] == gen {
		return f.nf[i], nil
	}
	if f.nf[i] != nil {
		f.nf[i].Close()
		f.nf[i] = nil
	}
	h, err := fs.Open(f.path)
	if errors.Is(err, vfs.ErrNotExist) && create {
		h, err = fs.Create(f.path)
		if errors.Is(err, vfs.ErrExist) {
			h, err = fs.Open(f.path)
		}
	}
	if err != nil {
		return nil, err
	}
	f.nf[i] = h
	f.ngen[i] = gen
	return h, nil
}

// invalidate drops a cached handle (after the server restarted and
// forgot it).
func (f *stripeFile) invalidate(i int) {
	f.hmu[i].Lock()
	f.nf[i] = nil
	f.hmu[i].Unlock()
}

// nodeRead fills buf from node i's file at node offset off, zero-filling
// past EOF and for missing files, so callers always get the zero-padded
// shard view the parity math is defined over. Returns nil for every
// healthy outcome; errors are node faults.
func (f *stripeFile) nodeRead(i int, buf []byte, off int64) error {
	return f.ss.nodeCall(i, func(fs vfs.FileSystem) error {
		tel := f.ss.tel != nil && f.ss.tel.Enabled()
		var start time.Time
		if tel {
			start = time.Now()
		}
		err := f.nodeReadOnce(i, fs, buf, off, true)
		n := f.ss.nodes[i]
		if err == nil {
			n.bytesR.Add(int64(len(buf)))
			if tel {
				n.telLatR.RecordSince(start)
			}
		}
		return err
	})
}

func (f *stripeFile) nodeReadOnce(i int, fs vfs.FileSystem, buf []byte, off int64, retry bool) error {
	h, err := f.handle(i, fs, false)
	if errors.Is(err, vfs.ErrNotExist) {
		zero(buf)
		return nil
	}
	if err != nil {
		return err
	}
	n, err := h.ReadAt(buf, off)
	if errors.Is(err, vfs.ErrClosed) && retry {
		// The node restarted and lost the handle table; reopen once.
		f.invalidate(i)
		return f.nodeReadOnce(i, fs, buf, off, false)
	}
	if err == nil || err == io.EOF {
		zero(buf[n:])
		return nil
	}
	return err
}

// nodeWrite writes buf to node i's file at node offset off, creating the
// node file if it does not exist yet.
func (f *stripeFile) nodeWrite(i int, buf []byte, off int64) error {
	return f.ss.nodeCall(i, func(fs vfs.FileSystem) error {
		tel := f.ss.tel != nil && f.ss.tel.Enabled()
		var start time.Time
		if tel {
			start = time.Now()
		}
		err := f.nodeWriteOnce(i, fs, buf, off, true)
		n := f.ss.nodes[i]
		if err == nil {
			n.bytesW.Add(int64(len(buf)))
			if tel {
				n.telLatW.RecordSince(start)
			}
		}
		return err
	})
}

func (f *stripeFile) nodeWriteOnce(i int, fs vfs.FileSystem, buf []byte, off int64, retry bool) error {
	h, err := f.handle(i, fs, true)
	if err != nil {
		return err
	}
	_, err = h.WriteAt(buf, off)
	if errors.Is(err, vfs.ErrClosed) && retry {
		f.invalidate(i)
		return f.nodeWriteOnce(i, fs, buf, off, false)
	}
	return err
}

// nodePunch punches [off, off+n) on node i's file; missing files are
// already holes.
func (f *stripeFile) nodePunch(i int, off, n int64) error {
	return f.ss.nodeCall(i, func(fs vfs.FileSystem) error {
		h, err := f.handle(i, fs, false)
		if errors.Is(err, vfs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		err = h.PunchHole(off, n)
		if errors.Is(err, vfs.ErrClosed) {
			f.invalidate(i)
			if h, err = f.handle(i, fs, false); err == nil {
				err = h.PunchHole(off, n)
			}
		}
		return err
	})
}

func zero(b []byte) {
	clear(b)
}

// usable reports whether node i can serve reads right now.
func (ss *StripeSet) usable(i int) bool {
	n := ss.nodes[i]
	return !n.stale.Load() && n.br.Available()
}

// readShards reads stripes [bs0, bs1] of the file into per-data-node
// buffers (each (bs1-bs0+1)*s bytes, caller-drawn, contents stale),
// reconstructing from parity when data nodes are stale, quarantined, or
// fail. Every byte of every buffer is written: bytes a node does not store
// are zeroed, and reconstruction overwrites a failed node's buffer in
// full. This is the shared engine under reads, read-modify-write prefills,
// rebuilds, and scrubs. L is the logical size whose clamps apply. excl
// marks nodes to treat as absent (the rebuild target). Parity buffers come
// from cb.
func (f *stripeFile) readShards(cb *callBufs, bs0, bs1, l int64, dataBufs [][]byte, excl int) error {
	g := f.ss.geom
	nStripes := bs1 - bs0 + 1
	lo := bs0 * g.s
	failed := make([]bool, g.k+g.m)
	var wg sync.WaitGroup
	for j := 0; j < g.k; j++ {
		if j == excl || f.ss.nodes[j].stale.Load() {
			failed[j] = true
			continue
		}
		span := max64(0, min64(lo+nStripes*g.s, g.nodeLen(j, l))-lo)
		zero(dataBufs[j][span:]) // nothing stored there: zeros
		if span == 0 {
			continue
		}
		wg.Add(1)
		go func(j int, span int64) {
			defer wg.Done()
			if err := f.nodeRead(j, dataBufs[j][:span], lo); err != nil {
				failed[j] = true
			}
		}(j, span)
	}
	wg.Wait()
	anyData := false
	for j := 0; j < g.k; j++ {
		if failed[j] {
			anyData = true
		}
	}
	if !anyData {
		return nil
	}
	if g.m == 0 {
		return fmt.Errorf("%w: data node lost with no parity", ErrDegraded)
	}
	// Degraded: pull parity shards and reconstruct the whole batch.
	parityBufs := cb.set(g.m, nStripes*g.s)
	pspan := max64(0, min64(lo+nStripes*g.s, g.parityLen(l))-lo)
	for p := 0; p < g.m; p++ {
		i := g.k + p
		if i == excl || f.ss.nodes[i].stale.Load() {
			failed[i] = true
			continue
		}
		zero(parityBufs[p][pspan:])
		if pspan == 0 {
			continue
		}
		wg.Add(1)
		go func(p int, i int) {
			defer wg.Done()
			if err := f.nodeRead(i, parityBufs[p][:pspan], lo); err != nil {
				failed[i] = true
			}
		}(p, i)
	}
	wg.Wait()
	if g.k+g.m-countTrue(failed) < g.k {
		return ErrDegraded
	}
	shards := cb.rows(g.k + g.m)
	present := make([]bool, g.k+g.m)
	for r := int64(0); r < nStripes; r++ {
		for j := 0; j < g.k; j++ {
			shards[j] = dataBufs[j][r*g.s : (r+1)*g.s]
			present[j] = !failed[j]
		}
		for p := 0; p < g.m; p++ {
			shards[g.k+p] = parityBufs[p][r*g.s : (r+1)*g.s]
			present[g.k+p] = !failed[g.k+p]
		}
		if err := f.ss.code.Reconstruct(shards, present); err != nil {
			return err
		}
	}
	var recon int64
	for j := 0; j < g.k; j++ {
		if failed[j] {
			if n := min64(lo+nStripes*g.s, g.nodeLen(j, l)) - lo; n > 0 {
				recon += n
			}
		}
	}
	f.ss.degradedReads.Add(1)
	f.ss.reconstructedBytes.Add(recon)
	return nil
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// ensureLoaded populates the cached logical size if needed.
func (ss *StripeSet) ensureLoaded(path string, fm *fileMeta) error {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	return ss.ensureLoadedLocked(path, fm)
}

func (ss *StripeSet) ensureLoadedLocked(path string, fm *fileMeta) error {
	if fm.loaded {
		return nil
	}
	infos := make([]vfs.FileInfo, len(ss.nodes))
	oks := make([]bool, len(ss.nodes))
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error {
		info, err := fs.Stat(path)
		if err == nil {
			infos[i], oks[i] = info, true
		}
		return err
	})
	if err := ss.resolveNS(errs, false); err != nil {
		return err
	}
	fm.size = ss.sizeFromStats(infos, oks)
	fm.loaded = true
	return nil
}

// ReadAt reads logical bytes, reconstructing from parity when nodes are
// down. Short reads at EOF return io.EOF per the vfs contract.
func (f *stripeFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, vfs.ErrClosed
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if len(p) == 0 {
		return 0, nil
	}
	fm := f.ss.getMeta(f.path)
	fm.mu.RLock()
	if !fm.loaded {
		fm.mu.RUnlock()
		if err := f.ss.ensureLoaded(f.path, fm); err != nil {
			return 0, err
		}
		fm.mu.RLock()
	}
	defer fm.mu.RUnlock()
	l := fm.size
	if off >= l {
		return 0, io.EOF
	}
	n := int(min64(int64(len(p)), l-off))
	if err := f.readRangeLocked(p[:n], off, l); err != nil {
		return 0, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// readRangeLocked fills dst with logical bytes [off, off+len(dst)),
// batching stripes to bound memory. Caller holds fm.mu (read or write).
func (f *stripeFile) readRangeLocked(dst []byte, off, l int64) error {
	g := f.ss.geom
	span := g.span()
	end := off + int64(len(dst))
	batchStripes := max64(1, batchBytes/span)
	for bs0 := off / span; bs0*span < end; bs0 += batchStripes {
		bs1 := min64(bs0+batchStripes-1, (end-1)/span)
		if err := f.readBatchInto(dst, off, end, bs0, bs1, l); err != nil {
			return err
		}
	}
	return nil
}

func (f *stripeFile) readBatchInto(dst []byte, off, end, bs0, bs1, l int64) error {
	g := f.ss.geom
	cb := getCallBufs()
	defer cb.release()
	dataBufs := cb.set(g.k, (bs1-bs0+1)*g.s)
	if err := f.readShards(cb, bs0, bs1, l, dataBufs, -1); err != nil {
		return err
	}
	gatherBatch(g, dst, off, end, bs0, bs1, dataBufs)
	return nil
}

// gatherBatch copies shard-layout buffers into the logical buffer.
func gatherBatch(g geom, dst []byte, off, end, bs0, bs1 int64, dataBufs [][]byte) {
	span := g.span()
	for st := bs0; st <= bs1; st++ {
		for j := 0; j < g.k; j++ {
			shardLo := st*span + int64(j)*g.s
			lo := max64(off, shardLo)
			hi := min64(end, shardLo+g.s)
			if lo >= hi {
				continue
			}
			src := dataBufs[j][(st-bs0)*g.s+lo-shardLo:]
			copy(dst[lo-off:hi-off], src[:hi-lo])
		}
	}
}

// scatterBatch copies logical bytes into shard-layout buffers — the
// inverse of gatherBatch.
func scatterBatch(g geom, src []byte, off, end, bs0, bs1 int64, dataBufs [][]byte) {
	span := g.span()
	for st := bs0; st <= bs1; st++ {
		for j := 0; j < g.k; j++ {
			shardLo := st*span + int64(j)*g.s
			lo := max64(off, shardLo)
			hi := min64(end, shardLo+g.s)
			if lo >= hi {
				continue
			}
			dstb := dataBufs[j][(st-bs0)*g.s+lo-shardLo:]
			copy(dstb[:hi-lo], src[lo-off:hi-off])
		}
	}
}

// WriteAt writes logical bytes: full-stripe batches skip the pre-read,
// partial stripes read-modify-write, and a write confined to a single
// shard takes the delta-parity fast path (1+m reads, 1+m writes,
// independent of k).
func (f *stripeFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, vfs.ErrClosed
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if len(p) == 0 {
		return 0, nil
	}
	fm := f.ss.getMeta(f.path)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if err := f.ss.ensureLoadedLocked(f.path, fm); err != nil {
		return 0, err
	}
	l := fm.size
	end := off + int64(len(p))
	newL := max64(l, end)

	g := f.ss.geom
	if st0, sh0, o0 := g.locate(off); g.m > 0 && int64(len(p)) <= g.s-o0 {
		// Single-shard fast path.
		if ok, err := f.writeDelta(st0, sh0, o0, p, l); err != nil {
			return 0, err
		} else if ok {
			if err := f.finishWrite(fm, l, newL); err != nil {
				return 0, err
			}
			return len(p), nil
		}
	}

	span := g.span()
	batchStripes := max64(1, batchBytes/span)
	for bs0 := off / span; bs0*span < end; bs0 += batchStripes {
		bs1 := min64(bs0+batchStripes-1, (end-1)/span)
		if err := f.writeBatch(p, off, end, bs0, bs1, l, newL); err != nil {
			return 0, err
		}
	}
	if err := f.finishWrite(fm, l, newL); err != nil {
		return 0, err
	}
	return len(p), nil
}

// writeDelta is the single-shard fast path: read the old bytes and old
// parity for just the written range, then update parity by the delta
// (newP = oldP + coef·(new − old) — XOR when m = 1). Returns ok=false to
// fall back to the general path when a needed node can't serve the
// pre-reads.
func (f *stripeFile) writeDelta(st int64, j int, o0 int64, p []byte, l int64) (bool, error) {
	g := f.ss.geom
	if !f.ss.usable(j) {
		return false, nil
	}
	for pi := 0; pi < g.m; pi++ {
		if !f.ss.usable(g.k + pi) {
			return false, nil
		}
	}
	nodeOff := st*g.s + o0
	cb := getCallBufs()
	defer cb.release()
	// Clamp the pre-reads: bytes beyond the stored length are zeros.
	old := cb.buf(int64(len(p)))
	n := max64(0, min64(g.nodeLen(j, l)-nodeOff, int64(len(p))))
	zero(old[n:])
	if n > 0 {
		if err := f.nodeRead(j, old[:n], nodeOff); err != nil {
			return false, nil
		}
	}
	oldP := cb.set(g.m, int64(len(p)))
	pn := max64(0, min64(g.parityLen(l)-nodeOff, int64(len(p))))
	var wg sync.WaitGroup
	pfail := atomic.Bool{}
	for pi := 0; pi < g.m; pi++ {
		zero(oldP[pi][pn:])
		if pn == 0 {
			continue
		}
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			if err := f.nodeRead(g.k+pi, oldP[pi][:pn], nodeOff); err != nil {
				pfail.Store(true)
			}
		}(pi)
	}
	wg.Wait()
	if pfail.Load() {
		return false, nil
	}
	// delta = old ⊕ new, reusing old's storage.
	xorSlice(p, old)
	for pi := 0; pi < g.m; pi++ {
		coef := byte(1)
		if g.m > 1 {
			coef = f.ss.code.parity[pi][j]
		}
		mulSliceXor(coef, old, oldP[pi])
	}
	// Dispatch the 1+m writes in parallel.
	cb.write(j, p, nodeOff)
	for pi := 0; pi < g.m; pi++ {
		cb.write(g.k+pi, oldP[pi], nodeOff)
	}
	return true, f.writeAll(cb)
}

// writeBatch materializes stripes [bs0, bs1], overlays the written
// bytes, recomputes parity, and issues one contiguous write per node.
func (f *stripeFile) writeBatch(p []byte, off, end, bs0, bs1, l, newL int64) error {
	g := f.ss.geom
	span := g.span()
	nStripes := bs1 - bs0 + 1
	batchStart := bs0 * span
	batchEnd := (bs1 + 1) * span
	cb := getCallBufs()
	defer cb.release()
	dataBufs := cb.set(g.k, nStripes*g.s)
	// Pre-read unless the write covers every pre-existing byte of the
	// batch's stripes; then every byte it does not write reads as zero.
	existingEnd := min64(batchEnd, l)
	if !(off <= batchStart && end >= existingEnd) && existingEnd > batchStart {
		if err := f.readShards(cb, bs0, bs1, l, dataBufs, -1); err != nil {
			return err
		}
	} else {
		for _, b := range dataBufs {
			zero(b)
		}
	}
	scatterBatch(g, p, off, end, bs0, bs1, dataBufs)

	var parityBufs [][]byte
	if g.m > 0 {
		parityBufs = cb.set(g.m, nStripes*g.s)
		shards, pshards := cb.rows(g.k), cb.rows(g.m)
		for r := int64(0); r < nStripes; r++ {
			for j := 0; j < g.k; j++ {
				shards[j] = dataBufs[j][r*g.s : (r+1)*g.s]
			}
			for pi := 0; pi < g.m; pi++ {
				pshards[pi] = parityBufs[pi][r*g.s : (r+1)*g.s]
			}
			if err := f.ss.code.Encode(shards, pshards); err != nil {
				return err
			}
		}
	}

	// One contiguous write per data node covering its slice of the
	// written range; parity nodes get the batch's full parity span
	// clamped to the new parity payload length.
	wLo, wHi := max64(off, batchStart), min64(end, batchEnd)
	for j := 0; j < g.k; j++ {
		nlo, nhi, ok := g.nodeRange(j, wLo, wHi)
		if !ok {
			continue
		}
		cb.write(j, dataBufs[j][nlo-bs0*g.s:nhi-bs0*g.s], nlo)
	}
	plo := bs0 * g.s
	phi := min64((bs1+1)*g.s, g.parityLen(newL))
	for pi := 0; pi < g.m; pi++ {
		if phi <= plo {
			break
		}
		cb.write(g.k+pi, parityBufs[pi][:phi-plo], plo)
	}
	return f.writeAll(cb)
}

// settleWrite folds per-node write outcomes into the stale set: a node
// that missed a write is stale until rebuilt; the op as a whole fails
// only when the stale set outgrows parity.
func (ss *StripeSet) settleWrite(targets []int, errs []error) error {
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if err != errSkipped && !isNodeFault(err) {
			return err // logical error (ErrNoSpace…): surface directly
		}
		ss.nodes[targets[i]].stale.Store(true)
		if firstErr == nil && err != errSkipped {
			firstErr = err
		}
	}
	staleCount := 0
	for _, n := range ss.nodes {
		if n.stale.Load() {
			staleCount++
		}
	}
	if staleCount > ss.geom.m {
		if firstErr != nil {
			return fmt.Errorf("%w: %v", ErrDegraded, firstErr)
		}
		return ErrDegraded
	}
	return nil
}

// finishWrite extends parity file sizes to the new logical size (their
// size IS the logical size on disk) and updates the cache.
func (f *stripeFile) finishWrite(fm *fileMeta, l, newL int64) error {
	if newL > l && f.ss.geom.m > 0 {
		targets := make([]int, 0, f.ss.geom.m)
		errs := make([]error, 0, f.ss.geom.m)
		for pi := 0; pi < f.ss.geom.m; pi++ {
			i := f.ss.geom.k + pi
			err := f.ss.nodeCall(i, func(fs vfs.FileSystem) error {
				return fs.Truncate(f.path, newL)
			})
			targets = append(targets, i)
			errs = append(errs, err)
		}
		if err := f.ss.settleWrite(targets, errs); err != nil {
			return err
		}
	}
	fm.size = newL
	return nil
}

// Truncate sets the logical size.
func (f *stripeFile) Truncate(size int64) error {
	if f.closed.Load() {
		return vfs.ErrClosed
	}
	return f.ss.truncatePath(f.path, size, f)
}

// Sync persists every node handle this file has touched.
func (f *stripeFile) Sync() error {
	if f.closed.Load() {
		return vfs.ErrClosed
	}
	targets := make([]int, 0, len(f.nf))
	errs := make([]error, 0, len(f.nf))
	for i := range f.ss.nodes {
		f.hmu[i].Lock()
		h := f.nf[i]
		f.hmu[i].Unlock()
		if h == nil {
			continue
		}
		err := f.ss.nodeCall(i, func(vfs.FileSystem) error { return h.Sync() })
		targets = append(targets, i)
		errs = append(errs, err)
	}
	return f.ss.settleWrite(targets, errs)
}

// Close releases every node handle.
func (f *stripeFile) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	var first error
	for i := range f.ss.nodes {
		f.hmu[i].Lock()
		h := f.nf[i]
		f.nf[i] = nil
		f.hmu[i].Unlock()
		if h == nil {
			continue
		}
		if err := h.Close(); err != nil && first == nil && !isNodeFault(err) {
			first = err
		}
	}
	return first
}

// Stat returns the composed logical metadata.
func (f *stripeFile) Stat() (vfs.FileInfo, error) {
	if f.closed.Load() {
		return vfs.FileInfo{}, vfs.ErrClosed
	}
	return f.ss.Stat(f.path)
}

// Extents maps data-node extents back to logical runs (parity is
// invisible — it describes redundancy, not data).
func (f *stripeFile) Extents() ([]vfs.Extent, error) {
	if f.closed.Load() {
		return nil, vfs.ErrClosed
	}
	fm := f.ss.getMeta(f.path)
	if err := f.ss.ensureLoaded(f.path, fm); err != nil {
		return nil, err
	}
	fm.mu.RLock()
	defer fm.mu.RUnlock()
	l := fm.size
	if l == 0 {
		return nil, nil
	}
	g := f.ss.geom
	span := g.span()
	var all []vfs.Extent
	fallback := false
	for j := 0; j < g.k && !fallback; j++ {
		if !f.ss.usable(j) {
			fallback = true
			break
		}
		var nodeExt []vfs.Extent
		err := f.ss.nodeCall(j, func(fs vfs.FileSystem) error {
			h, err := f.handle(j, fs, false)
			if errors.Is(err, vfs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			nodeExt, err = h.Extents()
			return err
		})
		if err != nil {
			fallback = true
			break
		}
		limit := g.nodeLen(j, l)
		for _, e := range nodeExt {
			lo := max64(e.Off, 0)
			hi := min64(e.End(), limit)
			for lo < hi {
				st := lo / g.s
				pieceHi := min64(hi, (st+1)*g.s)
				logical := st*span + int64(j)*g.s + (lo - st*g.s)
				all = append(all, vfs.Extent{Off: logical, Len: pieceHi - lo})
				lo = pieceHi
			}
		}
	}
	if fallback {
		// Degraded: report the conservative single run.
		return []vfs.Extent{{Off: 0, Len: l}}, nil
	}
	return sortExtents(all), nil
}

// PunchHole deallocates a logical range: full stripes are punched
// through to every node (parity included — parity of zeros is zero);
// boundary stripes read-modify-write parity and punch just the data
// shards.
func (f *stripeFile) PunchHole(off, n int64) error {
	if f.closed.Load() {
		return vfs.ErrClosed
	}
	if off < 0 || n < 0 {
		return vfs.ErrInvalid
	}
	if n == 0 {
		return nil
	}
	fm := f.ss.getMeta(f.path)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if err := f.ss.ensureLoadedLocked(f.path, fm); err != nil {
		return err
	}
	l := fm.size
	lo := off
	hi := min64(off+n, l)
	if lo >= hi {
		return nil
	}
	g := f.ss.geom
	span := g.span()

	// Full stripes covered entirely by the punch (or reaching EOF).
	fullLo := (lo + span - 1) / span
	fullHi := hi / span
	if hi == l && l%span != 0 {
		fullHi = (l + span - 1) / span // trailing partial stripe is fully cut
	}
	if fullHi > fullLo {
		nlo, nhi := fullLo*g.s, fullHi*g.s
		targets := make([]int, 0, g.k+g.m)
		errs := make([]error, 0, g.k+g.m)
		var wg sync.WaitGroup
		rese := make([]error, g.k+g.m)
		for i := 0; i < g.k+g.m; i++ {
			plo, phi := nlo, nhi
			if i >= g.k {
				phi = min64(phi, g.parityLen(l))
			} else {
				phi = min64(phi, g.nodeLen(i, l))
			}
			if phi <= plo {
				rese[i] = errNoop
				continue
			}
			wg.Add(1)
			go func(i int, plo, phi int64) {
				defer wg.Done()
				rese[i] = f.nodePunch(i, plo, phi-plo)
			}(i, plo, phi)
		}
		wg.Wait()
		for i, err := range rese {
			if err == errNoop {
				continue
			}
			targets = append(targets, i)
			errs = append(errs, err)
		}
		if err := f.ss.settleWrite(targets, errs); err != nil {
			return err
		}
	}

	// Boundary partial stripes (at most one on each side, but a short
	// punch can straddle two adjacent stripes): RMW parity, punch the
	// data shard ranges, stripe by stripe.
	for st := lo / span; st <= (hi-1)/span; st++ {
		if st >= fullLo && st < fullHi {
			continue
		}
		plo := max64(lo, st*span)
		phi := min64(hi, (st+1)*span)
		if plo >= phi {
			continue
		}
		if err := f.punchPartialStripe(st, plo, phi, l); err != nil {
			return err
		}
	}
	return nil
}

var errNoop = errors.New("ec: internal no-op marker")

// punchPartialStripe zeroes [lo, hi) inside stripe st: reread the
// stripe, recompute parity over the zeroed view, write parity, punch the
// data shard ranges.
func (f *stripeFile) punchPartialStripe(st, lo, hi, l int64) error {
	g := f.ss.geom
	cb := getCallBufs()
	defer cb.release()
	dataBufs := cb.set(g.k, g.s)
	if err := f.readShards(cb, st, st, l, dataBufs, -1); err != nil {
		return err
	}
	span := g.span()
	for j := 0; j < g.k; j++ {
		shardLo := st*span + int64(j)*g.s
		zlo := max64(lo, shardLo)
		zhi := min64(hi, shardLo+g.s)
		if zlo < zhi {
			zero(dataBufs[j][zlo-shardLo : zhi-shardLo])
		}
	}
	var targets []int
	var errs []error
	if g.m > 0 {
		parity := cb.set(g.m, g.s)
		if err := f.ss.code.Encode(dataBufs, parity); err != nil {
			return err
		}
		plo := st * g.s
		phi := min64((st+1)*g.s, g.parityLen(l))
		for pi := 0; pi < g.m; pi++ {
			if phi <= plo {
				break
			}
			err := f.nodeWrite(g.k+pi, parity[pi][:phi-plo], plo)
			targets = append(targets, g.k+pi)
			errs = append(errs, err)
		}
	}
	for j := 0; j < g.k; j++ {
		shardLo := st*span + int64(j)*g.s
		zlo := max64(lo, shardLo)
		zhi := min64(hi, shardLo+g.s)
		if zlo >= zhi {
			continue
		}
		nlo := st*g.s + zlo - shardLo
		err := f.nodePunch(j, nlo, zhi-zlo)
		targets = append(targets, j)
		errs = append(errs, err)
	}
	return f.ss.settleWrite(targets, errs)
}

// Truncate (path-level) adjusts every node: data nodes to their exact
// shard coverage, parity nodes to the logical size, recomputing the last
// partial stripe's parity on shrink.
func (ss *StripeSet) Truncate(path string, size int64) error {
	return ss.truncatePath(vfs.CleanPath(path), size, nil)
}

func (ss *StripeSet) truncatePath(path string, size int64, via *stripeFile) error {
	if size < 0 {
		return vfs.ErrInvalid
	}
	fm := ss.getMeta(path)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if err := ss.ensureLoadedLocked(path, fm); err != nil {
		return err
	}
	l := fm.size
	g := ss.geom
	span := g.span()
	scratch := via
	if scratch == nil {
		scratch = ss.newFile(path)
		defer scratch.Close()
	}

	// On shrink into a partial stripe, capture the stripe with the OLD
	// parity first — reconstruction needs old parity to be consistent
	// with old data.
	var newParity [][]byte
	shrinkPartial := g.m > 0 && size < l && size%span != 0
	st := size / span
	if shrinkPartial {
		cb := getCallBufs()
		defer cb.release()
		dataBufs := cb.set(g.k, g.s)
		if err := scratch.readShards(cb, st, st, l, dataBufs, -1); err != nil {
			return err
		}
		for j := 0; j < g.k; j++ {
			keep := g.nodeLen(j, size) - st*g.s
			if keep < 0 {
				keep = 0
			}
			if keep < g.s {
				zero(dataBufs[j][keep:])
			}
		}
		newParity = cb.set(g.m, g.s)
		if err := ss.code.Encode(dataBufs, newParity); err != nil {
			return err
		}
	}

	// Data nodes: exact shard coverage (grow leaves holes, shrink cuts).
	targets := make([]int, 0, len(ss.nodes))
	errs := make([]error, 0, len(ss.nodes))
	var wg sync.WaitGroup
	rese := make([]error, len(ss.nodes))
	for j := 0; j < g.k; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			rese[j] = ss.nodeCall(j, func(fs vfs.FileSystem) error {
				return fs.Truncate(path, g.nodeLen(j, size))
			})
		}(j)
	}
	// Parity nodes: on shrink, first drop to the parity payload length so
	// no stale parity survives in the hole region a later grow would
	// expose; then (below) extend to the logical size.
	for pi := 0; pi < g.m; pi++ {
		i := g.k + pi
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rese[i] = ss.nodeCall(i, func(fs vfs.FileSystem) error {
				if size < l {
					if err := fs.Truncate(path, g.parityLen(size)); err != nil {
						return err
					}
				}
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range rese {
		targets = append(targets, i)
		errs = append(errs, err)
	}
	if err := ss.settleWrite(targets, errs); err != nil {
		return err
	}

	if shrinkPartial {
		plo := st * g.s
		phi := g.parityLen(size)
		targets = targets[:0]
		errs = errs[:0]
		for pi := 0; pi < g.m; pi++ {
			if phi <= plo {
				break
			}
			err := scratch.nodeWrite(g.k+pi, newParity[pi][:phi-plo], plo)
			targets = append(targets, g.k+pi)
			errs = append(errs, err)
		}
		if err := ss.settleWrite(targets, errs); err != nil {
			return err
		}
	}

	// Parity file size = logical size, always.
	targets = targets[:0]
	errs = errs[:0]
	for pi := 0; pi < g.m; pi++ {
		i := g.k + pi
		err := ss.nodeCall(i, func(fs vfs.FileSystem) error {
			return fs.Truncate(path, size)
		})
		targets = append(targets, i)
		errs = append(errs, err)
	}
	if err := ss.settleWrite(targets, errs); err != nil {
		return err
	}
	fm.size = size
	return nil
}
