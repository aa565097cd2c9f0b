package core

import (
	"cmp"
	"errors"
	"io"
	"slices"
	"sync"

	"muxfs/internal/guard"
	"muxfs/internal/vfs"
)

// The data-path fan-out engine parallelizes the user-facing hot path the
// same way engine.go parallelizes migration: when one ReadAt/WriteAt plan
// spans more than one tier, the per-tier segment groups dispatch
// concurrently, so a file striped across PM+SSD+HDD pays the *max* of the
// device times instead of the sum (§3.2's Mux overhead is the cost of
// indirection; this claws back wall-clock time the indirection makes
// available). Sync() fans out to every participating file system the same
// way. Three rules keep it safe and deterministic:
//
//   - Groups, not segments, are the unit of parallelism. All segments of a
//     request that target one tier run in file order on one goroutine, and
//     groups touch disjoint tiers (distinct downward handles and file
//     systems), so no two goroutines of a request ever share a downward
//     handle. Buffer ranges are disjoint by construction (the plan tiles
//     the request), so results are byte-identical to serial dispatch.
//   - Every segment still goes through tierIO (health.go): retry/backoff,
//     breaker fail-fast, and per-segment replica fallback compose with the
//     fan-out unchanged. Per-tier gates (guard.Gate) — sized by the same
//     tierWidth rule the migration engine uses (engine.go) — bound how many
//     data-path ops pile onto one device, so a rotational tier is never
//     seek-thrashed by concurrent fan-outs.
//   - Gate holders never block on a file's bookkeeping lock. The write
//     path fans out while holding f.mu, so a slot holder that waited on
//     f.mu could deadlock against it; slots are therefore held only around
//     the raw tierIO call (replica fallback, which re-locks f.mu, runs
//     after release). This is also why the data path does not share the
//     migration engine's per-round gates: the engine holds its slots
//     across a move's begin and copy, which take f.mu.
//
// Errors keep serial semantics where it matters: the reported error is the
// one belonging to the earliest group in plan order, so a multi-tier
// failure surfaces deterministically regardless of goroutine interleaving.

// defaultDataFanout is the default bound on concurrent per-tier groups per
// request. Requests never split into more groups than live tiers, so the
// default simply means "always overlap"; 1 degrades to serial dispatch.
const defaultDataFanout = 8

// maxTierIOWidth caps a tier's data-path gate width (tierWidth derives
// the actual width from the device profile: 1 for rotational tiers, one
// slot per ~512 MiB/s of sustained bandwidth otherwise).
const maxTierIOWidth = 16

// ioSeg is one downward segment of a split request: the cached handle, the
// tier to charge, the file range, and where the segment's bytes live in the
// caller's buffer.
type ioSeg struct {
	h        vfs.File
	t        *Tier
	off, ln  int64
	bufStart int64
}

// planPool recycles request plan slices so steady-state multi-tier reads
// and writes allocate nothing for the plan.
var planPool = sync.Pool{
	New: func() any {
		s := make([]ioSeg, 0, 8)
		return &s
	},
}

func getPlan() *[]ioSeg {
	p := planPool.Get().(*[]ioSeg)
	*p = (*p)[:0]
	return p
}

func putPlan(p *[]ioSeg) {
	for i := range *p {
		(*p)[i] = ioSeg{} // drop handle references
	}
	planPool.Put(p)
}

// readSegment serves one read segment: through the SCM cache when the tier
// qualifies, otherwise straight from the downward handle, holding a
// data-path slot for the duration of the device call. A short downward read
// (io.EOF with partial n — e.g. the sparse file on that tier is shorter
// than the mapped range after a racing truncate-extend) zeroes the unread
// tail so stale caller-buffer bytes never masquerade as file content. On a
// device error the segment retries against the file's replica, if any.
//
// When mirror-read routing is on and the file has a routable mirror, the
// segment is first scored against both copies (route.go); a winning mirror
// serves it outright, and any mirror miss falls through to the unchanged
// primary path below. held reports that the caller holds f.mu (the final
// locked read attempt): routing is skipped then, because readRoutedMirror
// may take f.mu to resolve an uncached mirror handle, and the replica
// fallback runs under the caller's lock.
func (m *Mux) readSegment(f *muxFile, scm *cacheCtl, dh vfs.File, t *Tier, dst []byte, off int64, held bool) error {
	if rt, routed := m.routeTarget(f, t); routed && !held {
		if rt != t && m.readRoutedMirror(f, rt, dst, off) {
			f.noteRoute(rt.ID, true)
			m.telRouted(rt, true)
			return nil
		}
		f.noteRoute(t.ID, false)
		m.telRouted(t, false)
	}
	t0 := m.telStart()
	t.gate.Acquire()
	var err error
	if scm != nil && scm.cacheable(t) {
		err = m.tierIO(t, func() error {
			return scm.read(f.ino, t.ID, dh, dst, off)
		})
	} else {
		err = m.tierIO(t, func() error {
			nr, rerr := dh.ReadAt(dst, off)
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				return rerr
			}
			if nr < len(dst) {
				clear(dst[nr:])
			}
			return nil
		})
	}
	t.gate.Release()
	m.telIO("read", t, f.loadPath(), int64(len(dst)), t0, err)
	if err != nil {
		return m.readWithReplicaFallback(f, dst, off, err, held)
	}
	return nil
}

// writeSegment writes one segment to its downward handle under a data-path
// slot and the tier's health tracker. path is only for telemetry traces.
func (m *Mux) writeSegment(dh vfs.File, t *Tier, path string, buf []byte, off int64) error {
	t0 := m.telStart()
	t.gate.Acquire()
	err := m.tierIO(t, func() error {
		_, werr := dh.WriteAt(buf, off)
		return werr
	})
	t.gate.Release()
	m.telIO("write", t, path, int64(len(buf)), t0, err)
	return err
}

// planTiers returns the distinct tiers of a plan in order of first
// appearance — the fan-out groups.
func planTiers(plan []ioSeg) []*Tier {
	tiers := make([]*Tier, 0, 4)
	for i := range plan {
		seen := false
		for _, t := range tiers {
			if t == plan[i].t {
				seen = true
				break
			}
		}
		if !seen {
			tiers = append(tiers, plan[i].t)
		}
	}
	return tiers
}

// segRunner serves segment i of a request plan. The three runners are
// small value types rather than closures so that the serial path — every
// single-tier request — allocates nothing.
type segRunner interface {
	runSeg(m *Mux, plan []ioSeg, i int) error
}

// fanout dispatches a request plan. A single-tier plan (or fan-out width 1)
// runs serially on the calling goroutine in plan order, stopping at the
// first error. Otherwise each tier's segment group runs on its own
// goroutine, in plan order within the group and stopping at the group's
// first error, with at most Config.DataFanout groups in flight; the error
// returned is the earliest group's in plan order, so a multi-tier failure
// surfaces deterministically. The goroutines touch only downward handles
// and the per-tier gates, never f.mu (see the rules above).
func fanout[R segRunner](m *Mux, plan []ioSeg, r R) error {
	tiers := planTiers(plan)
	if len(tiers) <= 1 || m.fanWidth <= 1 {
		for i := range plan {
			if err := r.runSeg(m, plan, i); err != nil {
				return err
			}
		}
		return nil
	}

	gate := guard.NewGate(m.fanWidth)
	errs := make([]error, len(tiers))
	var wg sync.WaitGroup
	for gi, t := range tiers {
		wg.Add(1)
		gate.Acquire()
		go func() {
			defer wg.Done()
			defer gate.Release()
			for i := range plan {
				if plan[i].t != t {
					continue
				}
				if err := r.runSeg(m, plan, i); err != nil {
					errs[gi] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readSegs reads a plan into p (the request's buffer). held reports that
// the caller holds f.mu; the spawned goroutines never take it
// (readSegment).
type readSegs struct {
	f    *muxFile
	scm  *cacheCtl
	p    []byte
	held bool
}

func (r readSegs) runSeg(m *Mux, plan []ioSeg, i int) error {
	s := &plan[i]
	return m.readSegment(r.f, r.scm, s.h, s.t, r.p[s.bufStart:s.bufStart+s.ln], s.off, r.held)
}

// writeSegs writes p (the request's buffer) through a plan and marks in done
// each segment whose device write succeeded. The caller holds f.mu for the
// whole dispatch (write atomicity), which is safe because the spawned
// goroutines only touch downward handles and the per-tier gates — never f.
// Serial dispatch stops at the first error; parallel dispatch stops each
// *group* at its first error, so segments of other tiers may still land —
// done reports every landed segment so the caller repoints the BLT to
// match what the devices now hold.
type writeSegs struct {
	path string
	p    []byte
	done []bool
}

func (w writeSegs) runSeg(m *Mux, plan []ioSeg, i int) error {
	s := &plan[i]
	if err := m.writeSegment(s.h, s.t, w.path, w.p[s.bufStart:s.bufStart+s.ln], s.off); err != nil {
		return err
	}
	w.done[i] = true
	return nil
}

// syncSegs fsyncs each plan segment's handle (one per participating tier).
type syncSegs struct{ path string }

func (sy syncSegs) runSeg(m *Mux, plan []ioSeg, i int) error {
	s := &plan[i]
	t0 := m.telStart()
	s.t.gate.Acquire()
	err := m.tierIO(s.t, s.h.Sync)
	s.t.gate.Release()
	m.telIO("sync", s.t, sy.path, 0, t0, err)
	return err
}

// fanoutSync fsyncs every target — one handle per participating tier —
// each through its tier's health tracker and data-path gate. Targets run
// in tier order, so the returned error is the lowest-tier failure
// regardless of completion order. The caller must not hold f.mu.
func (m *Mux) fanoutSync(path string, targets []ioSeg) error {
	slices.SortFunc(targets, func(a, b ioSeg) int { return cmp.Compare(a.t.ID, b.t.ID) })
	return fanout(m, targets, syncSegs{path: path})
}
