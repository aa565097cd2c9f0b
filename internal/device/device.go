package device

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"muxfs/internal/bufpool"
	"muxfs/internal/simclock"
)

// Errors returned by device operations.
var (
	// ErrOutOfRange reports an access beyond the device capacity.
	ErrOutOfRange = errors.New("device: access out of range")
	// ErrShortBuffer reports an empty or nil transfer buffer.
	ErrShortBuffer = errors.New("device: zero-length transfer")
	// ErrInjectedFault is the base error of every injected device fault.
	// Sticky faults and the all-or-nothing InjectFailure mode wrap it
	// directly; a device returning it is down until service is restored.
	ErrInjectedFault = errors.New("injected fault")
	// ErrTransientFault marks a one-shot injected fault: the device is not
	// latched failed and the next attempt may succeed. It wraps
	// ErrInjectedFault, so errors.Is(err, ErrInjectedFault) matches both.
	ErrTransientFault = fmt.Errorf("%w (transient)", ErrInjectedFault)
)

// IsFault reports whether err originates from fault injection (transient or
// sticky), as opposed to a genuine usage error like ErrOutOfRange.
func IsFault(err error) bool { return errors.Is(err, ErrInjectedFault) }

// IsTransient reports whether err is a transient injected fault — the kind a
// bounded retry may absorb.
func IsTransient(err error) bool { return errors.Is(err, ErrTransientFault) }

// FaultPlan configures probabilistic partial fault injection on a device.
// Unlike InjectFailure's all-or-nothing switch, a plan makes individual
// operations fail (or stall) with the given probabilities, seeded so a
// fault drill replays the exact same fault sequence for a given op order.
type FaultPlan struct {
	// Seed initializes the fault RNG; the same seed and operation sequence
	// reproduce the same faults.
	Seed int64
	// ReadErrProb and WriteErrProb are per-operation error probabilities in
	// [0, 1] for ReadAt and WriteAt respectively.
	ReadErrProb  float64
	WriteErrProb float64
	// LatencyProb is the per-operation probability of a latency spike of
	// LatencySpike charged to the virtual clock (a stalling-but-working
	// device, the gray-failure mode).
	LatencyProb  float64
	LatencySpike time.Duration
	// Sticky latches the device into the hard-failed state on the first
	// injected error (a dying device); otherwise faults are transient and
	// the next operation may succeed (a flaky link or media retry).
	Sticky bool
}

const pageSize = bufpool.PageSize // internal storage granule, independent of Profile.BlockSize

// pageStore holds a device's page bytes, which come from the process's
// page arena (bufpool.GetPage): new pages and shadow copies are taken
// there, and every page dropped from either map — a shadow a barrier
// releases, a page a Discard or a crash-revert drops — goes back. Only its
// Device references it, so it can return its pages to the arena once the
// device is unreachable (bufpool.ReleaseOnDrop).
type pageStore struct {
	pages  map[int64]*[pageSize]byte // pageNo -> current contents
	shadow map[int64]*[pageSize]byte // pageNo -> durable copy for pages dirtied since last persist; nil entry = page did not exist
}

func newPageStore() *pageStore {
	s := &pageStore{
		pages:  make(map[int64]*[pageSize]byte),
		shadow: make(map[int64]*[pageSize]byte),
	}
	bufpool.ReleaseOnDrop(s, (*pageStore).release)
	return s
}

// release returns every page and shadow copy to the arena and empties
// both maps.
func (s *pageStore) release() {
	for _, page := range s.pages {
		bufpool.PutPage(page)
	}
	for _, dup := range s.shadow {
		bufpool.PutPage(dup)
	}
	clear(s.pages)
	clear(s.shadow)
}

// Device is a simulated block device. Contents live in sparsely allocated
// in-memory pages. Every access charges its modeled cost to the shared
// virtual clock and updates the device statistics.
//
// Writes are volatile until persisted: Persist makes a byte range durable,
// Crash reverts all un-persisted bytes to their last durable contents. A
// Device is safe for concurrent use.
type Device struct {
	prof Profile
	clk  *simclock.Clock

	mu sync.Mutex // guards the page maps and the fields below
	*pageStore
	lastEnd int64       // end offset of the previous access, for seek detection
	failed  bool        // set by InjectFailure (or a sticky fault): all ops error
	plan    FaultPlan   // probabilistic fault injection; zero = disabled
	frand   *rand.Rand  // fault RNG, non-nil only while a plan is active
	cp      *CrashPoint // deterministic crash injection; nil = disabled

	stats Stats
}

// New creates a device with the given profile, charging costs to clk.
func New(prof Profile, clk *simclock.Clock) *Device {
	if prof.BlockSize <= 0 {
		prof.BlockSize = DefaultBlockSize
	}
	return &Device{prof: prof, clk: clk, pageStore: newPageStore()}
}

// Profile returns the device's performance profile.
func (d *Device) Profile() Profile { return d.prof }

// Clock returns the virtual clock this device charges.
func (d *Device) Clock() *simclock.Clock { return d.clk }

// Capacity returns the addressable size in bytes.
func (d *Device) Capacity() int64 { return d.prof.Capacity }

func (d *Device) checkRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > d.prof.Capacity {
		return fmt.Errorf("%w: off=%d len=%d cap=%d dev=%s",
			ErrOutOfRange, off, n, d.prof.Capacity, d.prof.Name)
	}
	return nil
}

// ReadAt reads len(p) bytes at off. Unwritten regions read as zeros (the
// device is born zero-filled, like a trimmed SSD).
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, ErrShortBuffer
	}
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.startRead(off, len(p)); err != nil {
		return 0, err
	}
	d.copyOut(p, off)
	return len(p), nil
}

// ReadSpan reads the n bytes at off as one request without a buffer of n
// bytes: the same range check, fault roll, charge and statistics as a
// ReadAt of n bytes, after which the caller copies the bytes out piece by
// piece with Span.ReadAt, at no further cost. It mirrors WriteVecAt, which
// takes a write's bytes in pieces.
func (d *Device) ReadSpan(off int64, n int) (Span, error) {
	if n <= 0 {
		return Span{}, ErrShortBuffer
	}
	if err := d.checkRange(off, n); err != nil {
		return Span{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.startRead(off, n); err != nil {
		return Span{}, err
	}
	return Span{d: d, off: off, end: off + int64(n)}, nil
}

// Span is a read request ReadSpan has charged; its bytes are the device's
// current contents in [off, end).
type Span struct {
	d        *Device
	off, end int64
}

// ReadAt copies the len(p) bytes at device offset off, which must lie in
// the span, into p.
func (s Span) ReadAt(p []byte, off int64) error {
	if off < s.off || off+int64(len(p)) > s.end {
		return fmt.Errorf("%w: [%d,%d) outside the read span [%d,%d)", ErrOutOfRange, off, off+int64(len(p)), s.off, s.end)
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	s.d.copyOut(p, off)
	return nil
}

// startRead is the accounting of one read request of n bytes at off: the
// failed-device check, fault roll, charge and statistics. Caller holds d.mu.
func (d *Device) startRead(off int64, n int) error {
	if d.failed {
		return fmt.Errorf("device %s: %w", d.prof.Name, ErrInjectedFault)
	}
	if err := d.faultCheck(false); err != nil {
		return err
	}
	d.charge(off, n, false)
	d.stats.addRead(int64(n))
	return nil
}

// Peek copies the current contents at off into p at no cost: it charges no
// clock time, counts no statistics and rolls no faults, so it succeeds on a
// failed device too. It stands in for a DRAM copy: a block file system's
// page cache keeps no bytes for a clean page, whose bytes are these, and
// its hit paths read them here. Nothing else may use it.
func (d *Device) Peek(p []byte, off int64) error {
	if err := d.checkRange(off, len(p)); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.copyOut(p, off)
	return nil
}

// WriteAt writes len(p) bytes at off. The data is volatile until Persist
// covers it.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	return d.WriteVecAt([][]byte{p}, off)
}

// WriteVecAt writes the concatenation of bufs at off as one request: the
// same range check, fault roll, charge and statistics as a WriteAt of the
// joined bytes, without joining them. The device copies from bufs and keeps
// no reference.
func (d *Device) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	if n == 0 {
		return 0, ErrShortBuffer
	}
	if err := d.checkRange(off, n); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return 0, fmt.Errorf("device %s: %w", d.prof.Name, ErrInjectedFault)
	}
	if err := d.faultCheck(true); err != nil {
		return 0, err
	}
	if d.cp != nil && d.cp.blocked() {
		return 0, d.crashPointErr()
	}
	d.charge(off, n, true)
	for _, b := range bufs {
		d.copyIn(b, off)
		off += int64(len(b))
	}
	d.stats.addWrite(int64(n))
	return n, nil
}

// Persist makes the byte range [off, off+n) durable and charges the
// persistence-barrier cost. It is the CLFLUSH+fence analogue on PM and the
// cache-flush analogue on block devices. n == 0 persists nothing but still
// pays the barrier (an fsync on a clean file still issues a flush).
func (d *Device) Persist(off, n int64) error {
	if err := d.checkRange(off, int(min64(n, d.prof.Capacity-off))); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return fmt.Errorf("device %s: %w", d.prof.Name, ErrInjectedFault)
	}
	if d.cp != nil && d.cp.blocked() {
		return d.crashPointErr()
	}
	d.clk.Advance(d.prof.PersistLatency)
	d.stats.addPersist()
	first := off / pageSize
	last := (off + n - 1) / pageSize
	if n <= 0 {
		return nil
	}
	if d.cp == nil {
		for pg := first; pg <= last; pg++ {
			if dup, ok := d.shadow[pg]; ok {
				bufpool.PutPage(dup)
				delete(d.shadow, pg)
			}
		}
		return nil
	}
	// Crash-point mode: flush page by page so a sweep can tear the barrier.
	dirty := make([]int64, 0, last-first+1)
	for pg := first; pg <= last; pg++ {
		if _, ok := d.shadow[pg]; ok {
			dirty = append(dirty, pg)
		}
	}
	return d.persistPages(dirty)
}

// PersistAll makes the entire device durable (a full barrier). The error is
// always nil outside crash-point injection, so legacy callers may ignore it.
func (d *Device) PersistAll() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cp != nil && d.cp.blocked() {
		return d.crashPointErr()
	}
	d.clk.Advance(d.prof.PersistLatency)
	d.stats.addPersist()
	if d.cp == nil {
		for _, dup := range d.shadow {
			bufpool.PutPage(dup)
		}
		clear(d.shadow)
		return nil
	}
	dirty := make([]int64, 0, len(d.shadow))
	for pg := range d.shadow {
		dirty = append(dirty, pg)
	}
	return d.persistPages(dirty)
}

// Crash simulates power loss: every byte not covered by a Persist since it
// was written reverts to its last durable contents. DRAM-class devices lose
// everything.
func (d *Device) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.prof.Class == DRAM {
		d.release()
		return
	}
	for pg, durable := range d.shadow {
		bufpool.PutPage(d.pages[pg]) // the reverted page; nil if absent
		if durable == nil {
			delete(d.pages, pg)
		} else {
			d.pages[pg] = durable
		}
	}
	clear(d.shadow)
}

// Discard drops the contents of [off, off+n) without cost (TRIM analogue).
// Partial pages at the edges are zero-filled rather than dropped.
func (d *Device) Discard(off, n int64) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	end := off + n
	firstPg := off / pageSize
	// Discarding an absent page is a no-op, so a span wider than the
	// resident page set walks the map instead of every page number in the
	// span — recovery's free-space scrub discards device-sized gaps, which
	// must not cost O(capacity).
	if spanPgs := (end+pageSize-1)/pageSize - firstPg; spanPgs > int64(len(d.pages)) {
		for pg := range d.pages {
			if pg >= firstPg && pg*pageSize < end {
				d.discardPage(pg, off, end)
			}
		}
		return
	}
	for pg := firstPg; pg*pageSize < end; pg++ {
		d.discardPage(pg, off, end)
	}
}

// discardPage drops or zeroes the part of page pg inside [off, end).
// Caller holds d.mu. Absent pages are untouched — nothing to shadow, since
// a crash-revert would restore absence anyway.
func (d *Device) discardPage(pg, off, end int64) {
	page, ok := d.pages[pg]
	if !ok {
		return
	}
	pstart, pend := pg*pageSize, (pg+1)*pageSize
	if off <= pstart && end >= pend {
		// An unshadowed page holds durable contents, so the dropped page
		// itself becomes the shadow; otherwise nothing references it.
		if _, ok := d.shadow[pg]; ok {
			bufpool.PutPage(page)
		} else {
			d.shadow[pg] = page
		}
		delete(d.pages, pg)
		return
	}
	d.snapshotPage(pg)
	lo := max64(off, pstart) - pstart
	hi := min64(end, pend) - pstart
	for i := lo; i < hi; i++ {
		page[i] = 0
	}
}

// InjectFailure makes every subsequent operation fail (or restores service
// when fail is false). Used by fault-injection tests.
func (d *Device) InjectFailure(fail bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = fail
}

// InjectFaults arms probabilistic fault injection with the given plan,
// replacing any previous plan and reseeding the fault RNG. A zero plan is
// equivalent to ClearFaults.
func (d *Device) InjectFaults(plan FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if plan == (FaultPlan{}) {
		d.plan, d.frand = FaultPlan{}, nil
		return
	}
	d.plan = plan
	d.frand = rand.New(rand.NewSource(plan.Seed))
}

// ClearFaults disarms probabilistic fault injection and releases a sticky
// fault latch (InjectFailure's switch included), restoring full service.
func (d *Device) ClearFaults() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan, d.frand = FaultPlan{}, nil
	d.failed = false
}

// faultCheck rolls the active fault plan for one operation: possibly charge
// a latency spike, then possibly fail the op. Caller holds d.mu.
func (d *Device) faultCheck(write bool) error {
	if d.frand == nil {
		return nil
	}
	if d.plan.LatencyProb > 0 && d.frand.Float64() < d.plan.LatencyProb {
		d.clk.Advance(d.plan.LatencySpike)
		d.stats.addSpike(d.plan.LatencySpike)
	}
	p := d.plan.ReadErrProb
	if write {
		p = d.plan.WriteErrProb
	}
	if p > 0 && d.frand.Float64() < p {
		d.stats.addFault()
		if d.plan.Sticky {
			d.failed = true
			return fmt.Errorf("device %s: %w", d.prof.Name, ErrInjectedFault)
		}
		return fmt.Errorf("device %s: %w", d.prof.Name, ErrTransientFault)
	}
	return nil
}

// Stats returns a snapshot of the device's I/O statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.snapshot()
}

// ResetStats zeroes the statistics counters.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// charge computes and charges the cost of one access. Caller holds d.mu.
func (d *Device) charge(off int64, n int, write bool) {
	p := &d.prof
	var cost, bw int64
	if write {
		cost = int64(p.WriteLatency)
		bw = p.WriteBandwidth
	} else {
		cost = int64(p.ReadLatency)
		bw = p.ReadBandwidth
	}
	// Block devices transfer whole blocks; byte-addressable devices move
	// exactly the bytes touched.
	bytes := int64(n)
	if !p.ByteAddressable {
		bs := int64(p.BlockSize)
		first := off / bs
		last := (off + int64(n) - 1) / bs
		bytes = (last - first + 1) * bs
	}
	if bw > 0 {
		cost += bytes * int64(1e9) / bw
	}
	if p.SeekLatency > 0 && off != d.lastEnd {
		dist := off - d.lastEnd
		if dist < 0 {
			dist = -dist
		}
		cost += int64(p.SeekSettle)
		if p.Capacity > 0 {
			cost += int64(float64(p.SeekLatency) * float64(dist) / float64(p.Capacity))
		}
	}
	d.lastEnd = off + int64(n)
	d.clk.Advance(simdur(cost))
	d.stats.addBusy(cost)
}

// snapshotPage records the durable contents of page pg if not already
// shadowed. Caller holds d.mu.
func (d *Device) snapshotPage(pg int64) {
	if _, ok := d.shadow[pg]; ok {
		return
	}
	if page, ok := d.pages[pg]; ok {
		dup := bufpool.GetPage()
		*dup = *page
		d.shadow[pg] = dup
	} else {
		d.shadow[pg] = nil
	}
}

func (d *Device) copyIn(p []byte, off int64) {
	for len(p) > 0 {
		pg := off / pageSize
		pgOff := off % pageSize
		n := int64(len(p))
		if n > pageSize-pgOff {
			n = pageSize - pgOff
		}
		d.snapshotPage(pg)
		page, ok := d.pages[pg]
		if !ok {
			page = bufpool.GetPage() // stale contents
			if n < pageSize {
				clear(page[:]) // a new page reads as zeros outside the write
			}
			d.pages[pg] = page
		}
		copy(page[pgOff:pgOff+n], p[:n])
		p = p[n:]
		off += n
	}
}

func (d *Device) copyOut(p []byte, off int64) {
	for len(p) > 0 {
		pg := off / pageSize
		pgOff := off % pageSize
		n := int64(len(p))
		if n > pageSize-pgOff {
			n = pageSize - pgOff
		}
		if page, ok := d.pages[pg]; ok {
			copy(p[:n], page[pgOff:pgOff+n])
		} else {
			for i := int64(0); i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += n
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
