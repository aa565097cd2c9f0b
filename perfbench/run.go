package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/device"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/pagecache"
	"muxfs/internal/server"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// client is one closed-loop load generator: it issues its generator's
// ops one at a time, checks every reply against its model, and records
// latencies.
type client struct {
	fs    vfs.FileSystem
	gen   generator
	m     *model
	files []vfs.File // open data-file handles, by model index
	buf   []byte

	timed     bool            // record per-op latencies in lat
	lat       [nKinds][]int64 // ns per op, by kind (sync unused)
	ops       int64
	failed    int64
	userBytes int64
	errs      []string
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// record notes the latency of an op of kind k that began at t0.
func (c *client) record(k kind, t0 time.Time) {
	if c.timed {
		c.lat[k] = append(c.lat[k], int64(time.Since(t0)))
	}
}

// step runs one op; failures are counted on c.
func (c *client) step(o op) {
	c.ops++
	f := c.m.files[o.file]
	switch o.typ {
	case opRead:
		b := c.buf[:o.n]
		t0 := time.Now()
		n, err := c.files[o.file].ReadAt(b, o.off)
		c.record(kRead, t0)
		if err != nil && !(errors.Is(err, io.EOF) && n == len(b)) {
			c.fail("read %s@%d: %v", f.path, o.off, err)
		} else if n != len(b) {
			c.fail("read %s@%d: short read %d/%d", f.path, o.off, n, len(b))
		} else if blk, ok := c.check(o.file, b, o.off); !ok {
			c.fail("read %s block %d: content does not match version %d", f.path, blk, f.ver[blk])
		}
	case opWrite:
		b := c.buf[:o.n]
		c.fill(o.file, b, o.off)
		h := c.files[o.file]
		t0 := time.Now()
		n, err := h.WriteAt(b, o.off)
		if err == nil && o.sync {
			err = h.Sync()
		}
		c.record(kWrite, t0)
		c.userBytes += int64(n)
		if err != nil {
			c.fail("write %s@%d: %v", f.path, o.off, err)
		} else if n != len(b) {
			c.fail("write %s@%d: short write %d/%d", f.path, o.off, n, len(b))
		}
	case opStat:
		t0 := time.Now()
		fi, err := c.fs.Stat(f.path)
		c.record(kMeta, t0)
		if err != nil {
			c.fail("stat %s: %v", f.path, err)
		} else if fi.Size != f.size {
			c.fail("stat %s: size %d, want %d", f.path, fi.Size, f.size)
		}
	}
}

// fill writes the model's current tags for [off, off+len(b)) into b.
func (c *client) fill(file int32, b []byte, off int64) {
	f := c.m.files[file]
	for i := 0; i < len(b); i += blockSize {
		blk := int(off/blockSize) + i/blockSize
		fillBlock(b[i:i+blockSize], c.m.id+int(file), blk, f.ver[blk])
	}
}

// check verifies b against the model; on mismatch it returns the block.
func (c *client) check(file int32, b []byte, off int64) (int, bool) {
	f := c.m.files[file]
	for i := 0; i < len(b); i += blockSize {
		blk := int(off/blockSize) + i/blockSize
		if !checkBlock(b[i:i+blockSize], c.m.id+int(file), blk, f.ver[blk]) {
			return blk, false
		}
	}
	return 0, true
}

func (c *client) open() error {
	c.files = make([]vfs.File, len(c.m.files))
	for i, f := range c.m.files {
		h, err := c.fs.Open(f.path)
		if err != nil {
			return fmt.Errorf("open %s: %w", f.path, err)
		}
		c.files[i] = h
	}
	return nil
}

func (c *client) closeFiles() error {
	var errs []error
	for _, h := range c.files {
		if h != nil {
			errs = append(errs, h.Close())
		}
	}
	c.files = nil
	return errors.Join(errs...)
}

// verifyAll reads back every data file and checks its size; it returns
// the number of files that do not match the model.
func (c *client) verifyAll() int {
	bad := 0
	for i, f := range c.m.files {
		if !c.verifyFile(i, f) {
			bad++
		}
	}
	return bad
}

func (c *client) verifyFile(i int, f *fileModel) bool {
	h, err := c.fs.Open(f.path)
	if err != nil {
		c.fail("verify open %s: %v", f.path, err)
		return false
	}
	defer h.Close()
	end := int64(len(f.ver)) * blockSize
	for off := int64(0); off < end; off += int64(len(c.buf)) {
		b := c.buf[:min(int64(len(c.buf)), end-off)]
		n, err := h.ReadAt(b, off)
		clear(b[n:]) // past EOF reads as never written
		if err != nil && !errors.Is(err, io.EOF) {
			c.fail("verify read %s@%d: %v", f.path, off, err)
			return false
		}
		if blk, ok := c.check(int32(i), b, off); !ok {
			c.fail("verify %s block %d: content does not match version %d", f.path, blk, f.ver[blk])
			return false
		}
	}
	if fi, err := h.Stat(); err != nil || fi.Size != f.size {
		c.fail("verify stat %s: size %d err %v, want %d", f.path, fi.Size, err, f.size)
		return false
	}
	return true
}

// counts is a snapshot of the program's public counters.
type counts struct {
	at    time.Time
	sim   time.Duration
	dev   [7]device.Stats // devNames order
	cpu   time.Duration
	alloc uint64
	occ   core.OCCStats
	srv   server.Stats
	cache [2]pagecache.Stats // ssd, hdd
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

func (s *stack) snapshot() counts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counts{at: time.Now(), sim: s.clk.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, occ: s.mux.OCC()}
	for i, n := range devNames {
		if d := s.devs[n]; d != nil {
			c.dev[i] = d.Stats()
		}
	}
	if s.srv != nil {
		c.srv = s.srv.Stats()
	}
	for i, n := range []string{"ssd", "hdd"} {
		if fs := s.caches[n]; fs != nil {
			c.cache[i] = fs.CacheStats()
		}
	}
	return c
}

// det are the counts a seed fixes on a single-client workload.
type det struct {
	ops, userBytes int64
	sim            time.Duration
	devBytes       int64
	used, live     int64
}

// testbed is one set-up stack with its clients.
type testbed struct {
	w       *workload
	s       *stack
	t       *tracer
	clients []*client

	mu        sync.Mutex // guards the round fields
	mig       core.MigrationStats
	roundErrs int
	roundHeap uint64        // heap allocated by rounds, traced runs only
	roundWall time.Duration // wall time of rounds, as the client sees it
	done      atomic.Int64  // ops completed, for the round cadence
}

// setup builds the stack, prefills it through the Mux, warms it by
// reading back the warm set, and opens each client's handles.
func setup(w *workload, seed int64, t *tracer, nclients int) (*testbed, error) {
	s, err := w.build(t)
	if err != nil {
		return nil, err
	}
	ss := &testbed{w: w, s: s, t: t}
	ms := w.models(nclients)
	if err := prefill(w, s, ms); err != nil {
		s.close()
		return nil, err
	}
	for i, m := range ms {
		fs := s.muxFS
		if s.addr != "" {
			if fs, err = s.dial(t); err != nil {
				s.close()
				return nil, err
			}
		}
		c := &client{fs: fs, m: m, gen: w.newGen(seedFor(seed, i), m), buf: make([]byte, 1<<20)}
		if err := c.open(); err != nil {
			s.close()
			return nil, err
		}
		ss.clients = append(ss.clients, c)
	}
	return ss, nil
}

// prefill creates every data file through the Mux, writes each model's
// share of the filled files in 1 MiB writes, syncs, and reads its share of
// the warm files back.
func prefill(w *workload, s *stack, ms []*model) error {
	m0 := s.mux
	if err := m0.Mkdir(w.dir); err != nil {
		return err
	}
	buf := make([]byte, 1<<20)
	var sinceRound int64
	filled, warm := w.filled/len(ms), w.warm/len(ms)
	for _, m := range ms {
		c := &client{fs: m0, m: m, buf: buf}
		for i, f := range m.files {
			h, err := m0.Create(f.path)
			if err != nil {
				return fmt.Errorf("create %s: %w", f.path, err)
			}
			end := int64(len(f.ver)) * blockSize
			for off := int64(0); i < filled && off < end; off += int64(len(buf)) {
				b := buf[:min(int64(len(buf)), end-off)]
				bumpRange(f, off, int64(len(b)))
				c.fill(int32(i), b, off)
				if _, err := h.WriteAt(b, off); err != nil {
					return fmt.Errorf("prefill %s: %w", f.path, err)
				}
				sinceRound += int64(len(b))
			}
			if err := h.Close(); err != nil {
				return err
			}
			if w.roundEvery > 0 && sinceRound >= w.roundEvery {
				sinceRound = 0
				if _, err := m0.RunPolicyOnce(); err != nil {
					return fmt.Errorf("prefill policy round: %w", err)
				}
			}
		}
	}
	if err := m0.Sync(); err != nil {
		return err
	}
	for _, m := range ms {
		c := &client{fs: m0, m: m, buf: buf}
		for i := filled - warm; i < filled; i++ {
			if !c.verifyFile(i, m.files[i]) {
				return fmt.Errorf("warm: %v", c.errs)
			}
		}
	}
	return nil
}

func (ss *testbed) teardown() {
	for _, c := range ss.clients {
		c.closeFiles()
	}
	ss.s.close()
	ss.clients = nil
	ss.s = nil
	runtime.GC()
	debug.FreeOSMemory()
}

// round runs one inline policy round.
func (ss *testbed) round() {
	var before, after runtime.MemStats
	if ss.t != nil {
		runtime.ReadMemStats(&before)
	}
	var st core.MigrationStats
	var err error
	t0 := time.Now()
	ss.t.round(func() { st, err = ss.s.mux.RunPolicyOnce() })
	wall := time.Since(t0)
	if ss.t != nil {
		runtime.ReadMemStats(&after)
	}
	ss.mu.Lock()
	ss.mig.Add(st)
	ss.roundWall += wall
	ss.roundHeap += after.TotalAlloc - before.TotalAlloc
	if err != nil {
		ss.roundErrs++
	}
	ss.mu.Unlock()
}

// result is the timed phase of one testbed.
type result struct {
	start, end counts
	det        det
	lat        [nKinds][]int64 // per-op latencies, if the phase was timed
	// periods holds, for each policy period (policyEvery ops and the
	// round after them), its end as time since the phase began.
	periods []time.Duration
	failed  int64
	errs    []string
}

func (r *result) wall() time.Duration { return r.end.at.Sub(r.start.at) }

// minPeriods is the fewest policy periods opsPerSec takes a median over.
const minPeriods = 100

// opsPerSec is the median rate over the policy periods of the phase: a
// host stall (this VM loses 2–13% of its time to steal) slows the few
// periods it lands in, not the median. With fewer than minPeriods
// periods, which on tier-churn alternate between rounds that migrate and
// rounds that do not, it is the phase's overall rate.
func (r *result) opsPerSec() float64 {
	if len(r.periods) < minPeriods {
		return ratio(float64(r.det.ops), r.wall().Seconds())
	}
	rates := make([]float64, len(r.periods))
	prev := time.Duration(0)
	for i, t := range r.periods {
		rates[i] = ratio(float64(policyEvery), (t - prev).Seconds())
		prev = t
	}
	return median(rates)
}

// measure runs the timed phase: ops ops split evenly over the clients,
// each client in its own goroutine, with a policy round every
// policyEvery ops. With timed, the clients record per-op latencies; the
// end-to-end run leaves them out, so its heap and RSS figures are the
// stack's alone.
func (ss *testbed) measure(ops int, timed bool) (*result, error) {
	for _, c := range ss.clients {
		c.timed = timed
	}
	runtime.GC() // set-up's garbage is not the timed phase's to collect
	r := &result{start: ss.s.snapshot(), periods: make([]time.Duration, ops/policyEvery)}
	if ss.t != nil {
		ss.t.on.Store(true)
	}
	var wg sync.WaitGroup
	for _, c := range ss.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := 0; n < ops/len(ss.clients); n++ {
				c.step(c.gen.next())
				if done := ss.done.Add(1); done%policyEvery == 0 {
					ss.round()
					r.periods[done/policyEvery-1] = time.Since(r.start.at)
				}
			}
		}(c)
	}
	wg.Wait()
	if ss.t != nil {
		ss.t.on.Store(false)
	}
	r.end = ss.s.snapshot()
	for i := range r.end.dev {
		r.det.devBytes += r.end.dev[i].BytesWritten - r.start.dev[i].BytesWritten
	}
	r.det.sim = r.end.sim - r.start.sim
	for _, c := range ss.clients {
		r.det.ops += c.ops
		r.det.userBytes += c.userBytes
		r.det.live += c.m.liveBytes()
		r.failed += c.failed
		for k := range r.lat {
			r.lat[k] = append(r.lat[k], c.lat[k]...)
		}
		r.errs = append(r.errs, c.errs...)
	}
	used, err := ss.s.spaceUsed()
	r.det.used = used
	return r, err
}

// finalChecks closes every handle, runs cycles of Sync → Crash → Recover,
// then reads back everything every client wrote and runs Mux.Fsck. It
// returns the recovery wall times and the number of failed checks.
func (ss *testbed) finalChecks(cycles int) ([]float64, int, []string) {
	var errs []string
	bad := 0
	for _, c := range ss.clients {
		if err := c.closeFiles(); err != nil {
			bad++
			errs = append(errs, fmt.Sprintf("close: %v", err))
		}
	}
	var rec []float64
	for i := 0; i < cycles; i++ {
		runtime.GC() // keep the previous cycle's garbage out of this one's time
		t0 := time.Now()
		if err := ss.s.crashRecover(); err != nil {
			return rec, bad + 1, append(errs, err.Error())
		}
		rec = append(rec, time.Since(t0).Seconds())
	}
	for _, c := range ss.clients {
		c.errs = nil
		bad += c.verifyAll()
		errs = append(errs, c.errs...)
	}
	if rep := ss.s.mux.Fsck(); !rep.OK() {
		bad++
		errs = append(errs, fmt.Sprintf("fsck: %v", rep.Problems[:min(3, len(rep.Problems))]))
	}
	return rec, bad, errs
}

// The op streams leave out creates, renames and removes of files: two
// program defects make them fail. The probes below keep both visible;
// each is a per-layer count that drops to 0 when its defect is fixed.

// replayPairs bounds replayProbe: the mount fails its recovery after
// 3328 pairs today, and 8192 pairs take about 0.35 s on a 2-core host
// once the defect is fixed.
const replayPairs = 8192

// renameReuseProbe counts, over n trials, renames onto a path removed
// since the last journal flush that fail. Mux defers a removed file's
// tier-level deletion until its record is flushed, so the tier still
// holds the old file and refuses the rename. It runs after the final
// checks, since a failed rename leaves Mux and its tier disagreeing.
func renameReuseProbe(fs vfs.FileSystem, dir string, n int) (int, error) {
	if err := fs.Mkdir(dir); err != nil {
		return 0, err
	}
	failed := 0
	for i := 0; i < n; i++ {
		a, b := fmt.Sprintf("%s/p%d.a", dir, i), fmt.Sprintf("%s/p%d.b", dir, i)
		for _, p := range []string{a, b} {
			h, err := fs.Create(p)
			if err != nil {
				return 0, err
			}
			h.Close()
		}
		if err := fs.Remove(b); err != nil {
			return 0, err
		}
		if err := fs.Rename(a, b); err != nil {
			failed++
		}
	}
	return failed, nil
}

// replayProbe reports whether a novafs mount fails to recover after its
// log compacts during a namespace op: 1 if it does, 0 if replayPairs
// create/remove pairs pass. When a commit finds the log full, novafs
// compacts the log into a snapshot of the current state, then appends the
// commit's records again after the snapshot, which already holds their
// effect; replay then applies the create or remove twice and fails. The
// probe crash-recovers a fresh 16 MiB mount every 64 pairs.
func replayProbe() (int, error) {
	prof := device.PMProfile("probe")
	prof.Capacity = 16 << 20
	fs, err := novafs.New("nova@probe", device.New(prof, simclock.New()), novafs.DefaultCosts())
	if err != nil {
		return 0, err
	}
	for i := 0; i < replayPairs; i++ {
		p := fmt.Sprintf("/p%d", i)
		h, err := fs.Create(p)
		if err != nil {
			return 0, err
		}
		h.Close()
		if err := fs.Remove(p); err != nil {
			return 0, err
		}
		if i%64 == 63 {
			fs.Crash()
			if err := fs.Recover(); err != nil {
				return 1, nil
			}
		}
	}
	return 0, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileUs is the q-quantile of ns samples, in microseconds.
func quantileUs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1)+0.5)]) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
