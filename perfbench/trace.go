package main

// Tracing from outside the program: the benchmark assembles the stack
// itself, so it can put a timing wrapper at every vfs.FileSystem /
// vfs.File seam it wires together (native FS under Mux, Mux under the
// namespace server, the NSClients the clients call, the StripeSet under
// Mux, node clients under the StripeSet, and the Policy). Each wrapped call
// records one span; parents are recovered after the run from time
// enclosure, which is exact because a traced run keeps one request in
// flight at a time.

import (
	"bufio"
	"encoding/binary"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// layer identifies one wrapped seam.
type layer uint8

const (
	lFrontend layer = iota // NSClient, as a client calls it
	lCore                  // Mux, in-process or beneath the server
	lRound                 // one RunPolicyOnce, timed by the benchmark
	lPlan                  // Policy.PlanMigrations
	lPM                    // native FS on the PM tier
	lSSD                   // native FS on the SSD tier
	lHDD                   // native FS on the HDD tier
	lStripe                // StripeSet registered as a tier
	lNode0                 // node clients beneath the StripeSet
	lNode1
	lNode2
	nLayers
)

var layerName = [nLayers]string{"frontend", "core", "policy.round", "policy.plan",
	"fs.pm", "fs.ssd", "fs.hdd", "ec.tier", "ec.node0", "ec.node1", "ec.node2"}

// layerLevel is the stack depth: a span's parent is the innermost
// enclosing span of a smaller level.
var layerLevel = [nLayers]uint8{1, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4}

const maxLevel = 4

// isTier reports whether l is a tier registered with Mux.
func (l layer) isTier() bool { return l >= lPM && l <= lStripe }

// kind classifies a call for the per-kind percentiles.
type kind uint8

const (
	kRead kind = iota
	kWrite
	kSync
	kMeta
	nKinds
)

var kindName = [nKinds]string{"read", "write", "sync", "meta"}

func tagOf(l layer, k kind) uint8 { return uint8(l)*uint8(nKinds) + uint8(k) }

// span is one timed call. start and end are nanoseconds since the
// tracer's base; parent is filled in by analyze.
type span struct {
	start, end int64
	parent     int32
	tag        uint8
}

func (s span) layer() layer { return layer(s.tag / uint8(nKinds)) }
func (s span) kind() kind   { return kind(s.tag % uint8(nKinds)) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	base  time.Time
	on    atomic.Bool // spans are recorded only while on: set-up is not traced
	mu    sync.Mutex
	spans []span

	inRound atomic.Bool // a policy round is running: tier reads are migration reads
	// fgRead counts bytes returned by tier-level ReadAt outside policy
	// rounds, per tier layer.
	fgRead [nLayers]atomic.Int64
}

func newTracer(capHint int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capHint)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(tag uint8, start int64) {
	if !t.on.Load() {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, parent: -1, tag: tag})
	t.mu.Unlock()
}

// round runs one policy round inside an lRound span.
func (t *tracer) round(fn func()) {
	if t == nil {
		fn()
		return
	}
	t.inRound.Store(true)
	s := t.now()
	fn()
	t.record(tagOf(lRound, kMeta), s)
	t.inRound.Store(false)
}

// wrapFS puts a timing wrapper around fs at seam l, keeping the optional
// interfaces Mux discovers by type assertion: vfs.CrashRecoverer (Mux
// crashes and recovers its tiers through it) and core.StripeStatuser
// (Mux flags stripe tiers to policies through it). A nil tracer returns
// fs unchanged, so untraced runs execute the program with no wrapper.
func (t *tracer) wrapFS(l layer, fs vfs.FileSystem) vfs.FileSystem {
	if t == nil {
		return fs
	}
	w := &tracedFS{inner: fs, t: t, l: l}
	cr, isCR := fs.(vfs.CrashRecoverer)
	st, isStripe := fs.(core.StripeStatuser)
	switch { // no file system here is both
	case isCR:
		return struct {
			*tracedFS
			vfs.CrashRecoverer
		}{w, cr}
	case isStripe:
		return struct {
			*tracedFS
			core.StripeStatuser
		}{w, st}
	}
	return w
}

// wrapPolicy times PlanMigrations; PlaceWrite runs on every write and is
// left inside the core span that calls it.
func (t *tracer) wrapPolicy(p policy.Policy) policy.Policy {
	if t == nil {
		return p
	}
	return tracedPolicy{Policy: p, t: t}
}

type tracedPolicy struct {
	policy.Policy
	t *tracer
}

func (p tracedPolicy) PlanMigrations(tiers []policy.TierInfo, files []policy.FileStat, now time.Duration) []policy.Move {
	s := p.t.now()
	mv := p.Policy.PlanMigrations(tiers, files, now)
	p.t.record(tagOf(lPlan, kMeta), s)
	return mv
}

type tracedFS struct {
	inner vfs.FileSystem
	t     *tracer
	l     layer
}

func (w *tracedFS) tag(k kind) uint8 { return tagOf(w.l, k) }

func (w *tracedFS) file(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return f, err
	}
	return &tracedFile{inner: f, fs: w}, nil
}

// Name is an accessor Mux calls while planning; it is not a seam call.
func (w *tracedFS) Name() string { return w.inner.Name() }

func (w *tracedFS) Create(path string) (vfs.File, error) {
	s := w.t.now()
	f, err := w.inner.Create(path)
	w.t.record(w.tag(kMeta), s)
	return w.file(f, err)
}

func (w *tracedFS) Open(path string) (vfs.File, error) {
	s := w.t.now()
	f, err := w.inner.Open(path)
	w.t.record(w.tag(kMeta), s)
	return w.file(f, err)
}

func (w *tracedFS) Remove(path string) error {
	s := w.t.now()
	err := w.inner.Remove(path)
	w.t.record(w.tag(kMeta), s)
	return err
}

func (w *tracedFS) Rename(oldPath, newPath string) error {
	s := w.t.now()
	err := w.inner.Rename(oldPath, newPath)
	w.t.record(w.tag(kMeta), s)
	return err
}

func (w *tracedFS) Mkdir(path string) error {
	s := w.t.now()
	err := w.inner.Mkdir(path)
	w.t.record(w.tag(kMeta), s)
	return err
}

func (w *tracedFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	s := w.t.now()
	ents, err := w.inner.ReadDir(path)
	w.t.record(w.tag(kMeta), s)
	return ents, err
}

func (w *tracedFS) Stat(path string) (vfs.FileInfo, error) {
	s := w.t.now()
	fi, err := w.inner.Stat(path)
	w.t.record(w.tag(kMeta), s)
	return fi, err
}

func (w *tracedFS) SetAttr(path string, attr vfs.SetAttr) error {
	s := w.t.now()
	err := w.inner.SetAttr(path, attr)
	w.t.record(w.tag(kMeta), s)
	return err
}

func (w *tracedFS) Truncate(path string, size int64) error {
	s := w.t.now()
	err := w.inner.Truncate(path, size)
	w.t.record(w.tag(kMeta), s)
	return err
}

func (w *tracedFS) Statfs() (vfs.StatFS, error) {
	s := w.t.now()
	st, err := w.inner.Statfs()
	w.t.record(w.tag(kMeta), s)
	return st, err
}

func (w *tracedFS) Sync() error {
	s := w.t.now()
	err := w.inner.Sync()
	w.t.record(w.tag(kSync), s)
	return err
}

type tracedFile struct {
	inner vfs.File
	fs    *tracedFS
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t := f.fs.t
	s := t.now()
	n, err := f.inner.ReadAt(p, off)
	t.record(f.fs.tag(kRead), s)
	if f.fs.l.isTier() && t.on.Load() && !t.inRound.Load() {
		t.fgRead[f.fs.l].Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	s := f.fs.t.now()
	n, err := f.inner.WriteAt(p, off)
	f.fs.t.record(f.fs.tag(kWrite), s)
	return n, err
}

func (f *tracedFile) Truncate(size int64) error {
	s := f.fs.t.now()
	err := f.inner.Truncate(size)
	f.fs.t.record(f.fs.tag(kMeta), s)
	return err
}

func (f *tracedFile) Sync() error {
	s := f.fs.t.now()
	err := f.inner.Sync()
	f.fs.t.record(f.fs.tag(kSync), s)
	return err
}

func (f *tracedFile) Close() error {
	s := f.fs.t.now()
	err := f.inner.Close()
	f.fs.t.record(f.fs.tag(kMeta), s)
	return err
}

func (f *tracedFile) Stat() (vfs.FileInfo, error) {
	s := f.fs.t.now()
	fi, err := f.inner.Stat()
	f.fs.t.record(f.fs.tag(kMeta), s)
	return fi, err
}

func (f *tracedFile) Extents() ([]vfs.Extent, error) {
	s := f.fs.t.now()
	ext, err := f.inner.Extents()
	f.fs.t.record(f.fs.tag(kMeta), s)
	return ext, err
}

func (f *tracedFile) PunchHole(off, n int64) error {
	s := f.fs.t.now()
	err := f.inner.PunchHole(off, n)
	f.fs.t.record(f.fs.tag(kMeta), s)
	return err
}

func (f *tracedFile) Path() string { return f.inner.Path() }

// traceSummary is what analyze derives from the spans.
type traceSummary struct {
	spans int
	self  [nLayers][nKinds][]int64 // self ns per span
	dur   [nLayers][nKinds][]int64 // duration ns per span
	// Charged self time: where sibling spans overlap, each shared
	// instant is split evenly among them, so charged self times add up
	// to the root spans' time even when the program fans a call out.
	selfSum  [nLayers]float64
	syncSelf float64 // charged self ns of SSD and HDD tier Sync spans
	allSelf  float64
	rootSum  int64 // summed duration of spans without a parent

	tierCallsFromCore int // tier-level spans whose parent is a core span
	tierSyncsInRound  int // tier-level Sync spans whose parent is a policy round
	coreBusy          int64
}

// analyze assigns each span its parent — the innermost enclosing span at
// a smaller level — and computes self time, the span's duration minus the
// union of its children, and charged self time (see traceSummary).
func (t *tracer) analyze() *traceSummary {
	sp := t.spans
	sum := &traceSummary{spans: len(sp)}
	if len(sp) == 0 {
		return sum
	}
	var byLevel [maxLevel + 1][]int32
	for i := range sp {
		lv := layerLevel[sp[i].layer()]
		byLevel[lv] = append(byLevel[lv], int32(i))
	}
	for lv := range byLevel {
		idx := byLevel[lv]
		sort.Slice(idx, func(a, b int) bool { return sp[idx[a]].start < sp[idx[b]].start })
	}
	const lookBack = 16 // concurrent siblings a parent can hide behind
	for i := range sp {
		s := &sp[i]
		for lv := int(layerLevel[s.layer()]) - 1; lv >= 1 && s.parent < 0; lv-- {
			idx := byLevel[lv]
			j := sort.Search(len(idx), func(k int) bool { return sp[idx[k]].start > s.start }) - 1
			for n := 0; j >= 0 && n < lookBack; j, n = j-1, n+1 {
				p := sp[idx[j]]
				if p.end >= s.end {
					s.parent = idx[j]
					break
				}
			}
		}
	}

	// Children grouped by parent (CSR).
	first := make([]int32, len(sp)+1)
	for i := range sp {
		if p := sp[i].parent; p >= 0 {
			first[p+1]++
		}
	}
	for i := 1; i <= len(sp); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[len(sp)])
	fill := append([]int32(nil), first[:len(sp)]...)
	for i := range sp {
		if p := sp[i].parent; p >= 0 {
			kids[fill[p]] = int32(i)
			fill[p]++
		}
	}

	// Parents are visited before their children, so each child's charge
	// factor is known when it is reached.
	charge := make([]float64, len(sp))
	for lv := 1; lv <= maxLevel; lv++ {
		for _, i := range byLevel[lv] {
			s := sp[i]
			if s.parent < 0 {
				charge[i] = 1
				sum.rootSum += s.end - s.start
			}
			ch := kids[first[i]:first[i+1]]
			covered := chargeChildren(sp, s, ch, charge[i], charge)
			dur := s.end - s.start
			self := dur - covered
			l, k := s.layer(), s.kind()
			sum.self[l][k] = append(sum.self[l][k], self)
			sum.dur[l][k] = append(sum.dur[l][k], dur)
			w := charge[i] * float64(self)
			sum.selfSum[l] += w
			sum.allSelf += w
			if k == kSync && (l == lSSD || l == lHDD) {
				sum.syncSelf += w
			}
			if s.parent >= 0 && l.isTier() {
				switch sp[s.parent].layer() {
				case lCore:
					sum.tierCallsFromCore++
				case lRound:
					if k == kSync {
						sum.tierSyncsInRound++
					}
				}
			}
		}
	}
	sum.coreBusy = unionLen(sp, byLevel[layerLevel[lCore]], lCore)
	return sum
}

// chargeChildren returns the part of parent p covered by its children ch
// and sets each child's charge factor: pcharge times the share of the
// child's duration it is charged for when concurrent siblings split each
// instant they share evenly.
func chargeChildren(sp []span, p span, ch []int32, pcharge float64, charge []float64) int64 {
	if len(ch) == 0 {
		return 0
	}
	type event struct {
		t     int64
		pos   int
		start bool
	}
	evs := make([]event, 0, 2*len(ch))
	for pos, c := range ch {
		cs, ce := max(sp[c].start, p.start), min(sp[c].end, p.end)
		evs = append(evs, event{cs, pos, true}, event{max(cs, ce), pos, false})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].start && evs[b].start
	})
	acc := make([]float64, len(ch))
	var active []int
	var covered int64
	prev := evs[0].t
	for _, e := range evs {
		if seg := e.t - prev; seg > 0 && len(active) > 0 {
			covered += seg
			w := float64(seg) / float64(len(active))
			for _, a := range active {
				acc[a] += w
			}
		}
		prev = e.t
		if e.start {
			active = append(active, e.pos)
			continue
		}
		for j, a := range active {
			if a == e.pos {
				active = append(active[:j], active[j+1:]...)
				break
			}
		}
	}
	for pos, c := range ch {
		charge[c] = pcharge
		if d := sp[c].end - sp[c].start; d > 0 {
			charge[c] = pcharge * acc[pos] / float64(d)
		}
	}
	return covered
}

// unionLen is the wall time covered by the spans of layer l among idx
// (sorted by start).
func unionLen(sp []span, idx []int32, l layer) int64 {
	var total, curS, curE int64 = 0, -1, -1
	for _, i := range idx {
		s := sp[i]
		if s.layer() != l {
			continue
		}
		if s.start > curE {
			total += curE - curS
			curS, curE = s.start, s.end
		} else if s.end > curE {
			curE = s.end
		}
	}
	return total + curE - curS
}

// writeSpans writes the spans to path: a header of layer and kind names,
// then one little-endian record (start ns, end ns, parent index, layer,
// kind) per span.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, n := range layerName {
		w.WriteString(n + "\n")
	}
	for _, n := range kindName {
		w.WriteString(n + "\n")
	}
	w.WriteString("\n")
	var rec [22]byte
	for _, s := range t.spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.parent))
		rec[20], rec[21] = uint8(s.layer()), uint8(s.kind())
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
