package bench

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// E8 — metadata hot-path scaling: aggregate open/stat/cached-read/
// create-unlink throughput as the client count grows from 1 to 32
// goroutines.
//
// Like E5 and E7 this measures *wall clock* under a service-time governor,
// so the result is about serialization structure, not host core count: the
// governor charges device write time to every WriteAt, and a pair of
// background writer goroutines continuously rewrite a small hot set while
// the measured clients hammer the metadata and cached-read paths. Whatever
// locks an in-flight governed write holds, every operation serialized
// behind those locks pays the write's device time; operations that reach
// their data and bookkeeping lock-free proceed at memory speed. A
// single-mutex namespace additionally funnels every open/stat/create
// through one lock that the cached-read path touches too (tier resolution),
// so the sharded/lock-free design separates in this experiment even where
// CPU parallelism cannot.
//
// The oracle is strict: every measured 4 KiB cached read must return
// exactly the staged pattern (the hot files are only ever rewritten with
// identical bytes, so any divergence — stale zeros from a racing repoint,
// a torn mapping — is corruption), and Statfs file accounting must balance
// after the create/unlink churn completes.

// e8 workload shape.
const (
	e8HotFiles   = 4         // hot cached-read set, continuously rewritten
	e8HotSize    = 128 << 10 // one extent per hot file on the PM tier
	e8ColdDirs   = 8         // /cold/d0../d7
	e8ColdPerDir = 16        // open/stat targets per cold dir
	e8ColdSize   = 4 << 10
	e8Writers    = 2 // background governed writers over the hot set

	// e8WriteService matches the E5/E7 governor rate (12 ms per MiB): one
	// full hot-file rewrite holds the device ~1.5 ms of wall time.
	e8WriteService = 12 * time.Millisecond / (1 << 20)

	// e8Iters is the total measured loop iterations per configuration
	// (split across the client goroutines, so every configuration performs
	// identical work).
	e8Iters = 16384
)

// e8Goroutines is the client-count sweep.
var e8Goroutines = []int{1, 2, 4, 8, 16, 32}

// E8Row is one client-count configuration's measurement.
type E8Row struct {
	G         int     // measured client goroutines
	WallMs    float64 // wall-clock time for the fixed iteration budget
	Ops       int64   // primitive metadata + cached-read ops performed
	OpsPerSec float64 // aggregate throughput
	Speedup   float64 // this OpsPerSec / the G=1 OpsPerSec
}

// E8Result is the metadata-scaling measurement.
type E8Result struct {
	Rows []E8Row
	// OpsAt16 is the headline aggregate ops/sec at 16 client goroutines —
	// the number the acceptance criterion compares against the pre-change
	// single-mutex baseline.
	OpsAt16 float64
	// ScaleAt16 is OpsAt16 over the single-client throughput.
	ScaleAt16 float64
	// ByteIdentical reports whether every measured cached read (and the
	// post-run full readback) returned exactly the staged pattern.
	ByteIdentical bool
	// Consistent reports whether Statfs file accounting balanced after the
	// churn (no lost or leaked files).
	Consistent bool
}

// writeLagFS wraps a tier with a write-latency governor: each armed WriteAt
// sleeps in the caller for the modelled device write time before landing.
// Unlike E5's FIFO-queue governor there is no shared busy-until — writes to
// distinct files overlap freely — because E8 measures how long *other*
// operations stay serialized behind an in-flight write's device time, not
// device queueing itself. Reads and metadata calls pass through untouched:
// the measured paths are supposed to run at memory speed unless a lock
// chains them to a governed write.
type writeLagFS struct {
	vfs.FileSystem
	armed atomic.Bool
}

func (s *writeLagFS) Open(path string) (vfs.File, error) {
	f, err := s.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return &writeLagFile{File: f, fs: s}, nil
}

func (s *writeLagFS) Create(path string) (vfs.File, error) {
	f, err := s.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	return &writeLagFile{File: f, fs: s}, nil
}

type writeLagFile struct {
	vfs.File
	fs *writeLagFS
}

func (f *writeLagFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.armed.Load() && len(p) > 0 {
		time.Sleep(time.Duration(len(p)) * e8WriteService)
	}
	return f.File.WriteAt(p, off)
}

// writeLagTiers are one stack's per-tier writeLagFS governors.
type writeLagTiers [3]*writeLagFS

// govern is a stackSpec.govern that puts tier i behind a fresh governor.
func (g *writeLagTiers) govern(i int, fs vfs.FileSystem) vfs.FileSystem {
	g[i] = &writeLagFS{FileSystem: fs}
	return g[i]
}

func (g *writeLagTiers) arm(on bool) {
	for _, s := range g {
		s.armed.Store(on)
	}
}

func e8HotPath(i int) string  { return fmt.Sprintf("/hot/h%d", i) }
func e8ColdPath(i int) string { return fmt.Sprintf("/cold/d%d/f%02d", i/e8ColdPerDir, i%e8ColdPerDir) }

// e8Stage builds the namespace and working set with the governor disarmed.
func e8Stage(m *core.Mux, hotPat []byte) error {
	for _, dir := range []string{"/hot", "/cold", "/churn"} {
		if err := m.Mkdir(dir); err != nil {
			return err
		}
	}
	for d := 0; d < e8ColdDirs; d++ {
		if err := m.Mkdir(fmt.Sprintf("/cold/d%d", d)); err != nil {
			return err
		}
	}
	coldPat := make([]byte, e8ColdSize)
	for i := range coldPat {
		coldPat[i] = byte(i * 7)
	}
	for i := 0; i < e8ColdDirs*e8ColdPerDir; i++ {
		f, err := m.Create(e8ColdPath(i))
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(coldPat, 0); err != nil {
			return err
		}
		f.Close()
	}
	for i := 0; i < e8HotFiles; i++ {
		f, err := m.Create(e8HotPath(i))
		if err != nil {
			return err
		}
		// One full-file write: a single extent on the PM tier, so every
		// measured 4 KiB read is the single-extent fast path.
		if _, err := f.WriteAt(hotPat, 0); err != nil {
			return err
		}
		f.Close()
	}
	return nil
}

// runE8Config measures one client count against a fresh stack, with
// telemetry on or off. It also returns the stack's telemetry snapshot so E9
// can report per-tier latency distributions from the instrumented run.
func runE8Config(g int, disableTel bool) (E8Row, bool, bool, core.TelemetrySnapshot, error) {
	var noTel core.TelemetrySnapshot
	row := E8Row{G: g}
	var govs writeLagTiers
	s, err := newStack(stackSpec{
		mux:    core.Config{Name: "mux-e8", Policy: policy.Pinned{Tier: 0}, DisableTelemetry: disableTel},
		govern: govs.govern,
	})
	if err != nil {
		return row, false, false, noTel, err
	}
	hotPat := make([]byte, e8HotSize)
	for i := range hotPat {
		hotPat[i] = byte(i*13 + i/257)
	}
	if err := e8Stage(s.mux, hotPat); err != nil {
		return row, false, false, noTel, err
	}
	m := s.mux
	before, err := m.Statfs()
	if err != nil {
		return row, false, false, noTel, err
	}

	// Background governed writers: continuously rewrite the hot files with
	// the identical pattern. The bytes never change; only the lock and
	// device time an in-flight write imposes on concurrent readers do.
	var hotHandles [e8HotFiles]vfs.File
	for i := range hotHandles {
		if hotHandles[i], err = m.Open(e8HotPath(i)); err != nil {
			return row, false, false, noTel, err
		}
	}
	defer func() {
		for _, h := range hotHandles {
			h.Close()
		}
	}()
	govs.arm(true)
	defer govs.arm(false)
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	for w := 0; w < e8Writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				target := (w + k*e8Writers) % e8HotFiles
				if _, err := hotHandles[target].WriteAt(hotPat, 0); err != nil {
					return
				}
			}
		}(w)
	}

	// Measured clients: a fixed total budget of mixed metadata and cached
	// 4 KiB reads. Per iteration k (mod 8): 3 hot cached reads, 2 cold
	// open+close, 2 cold stats, 1 create+unlink churn pair.
	nCold := e8ColdDirs * e8ColdPerDir
	nBlocks := e8HotSize / 4096
	per := e8Iters / g
	if per < 1 {
		per = 1
	}
	var (
		clientWG sync.WaitGroup
		totalOps atomic.Int64
		badBytes atomic.Bool
		firstErr atomic.Pointer[error]
	)
	report := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	}
	start := time.Now()
	for w := 0; w < g; w++ {
		clientWG.Add(1)
		go func(w int) {
			defer clientWG.Done()
			buf := make([]byte, 4096)
			ops := int64(0)
			var hot [e8HotFiles]vfs.File
			for i := range hot {
				h, err := m.Open(e8HotPath(i))
				if err != nil {
					report(err)
					return
				}
				hot[i] = h
				defer h.Close()
			}
			for k := 0; k < per; k++ {
				switch k % 8 {
				case 0, 1, 2: // cached read from one hot extent
					fi := (w + k) % e8HotFiles
					off := int64((k*37+w*11)%nBlocks) * 4096
					if _, err := hot[fi].ReadAt(buf, off); err != nil {
						report(err)
						return
					}
					if !bytes.Equal(buf, hotPat[off:off+4096]) {
						badBytes.Store(true)
					}
					ops++
				case 3, 4: // open+close a cold file
					h, err := m.Open(e8ColdPath((w*31 + k) % nCold))
					if err != nil {
						report(err)
						return
					}
					h.Close()
					ops++
				case 5, 6: // stat a cold file
					if _, err := m.Stat(e8ColdPath((w*17 + k) % nCold)); err != nil {
						report(err)
						return
					}
					ops++
				default: // create+unlink churn, per-client unique names
					name := fmt.Sprintf("/churn/w%d-%d", w, k)
					h, err := m.Create(name)
					if err != nil {
						report(err)
						return
					}
					h.Close()
					if err := m.Remove(name); err != nil {
						report(err)
						return
					}
					ops += 2
				}
			}
			totalOps.Add(ops)
		}(w)
	}
	clientWG.Wait()
	wall := time.Since(start)
	close(stop)
	writerWG.Wait()
	govs.arm(false)
	if ep := firstErr.Load(); ep != nil {
		return row, false, false, noTel, *ep
	}

	// Oracles, off the clock: the hot bytes must still be exactly the
	// pattern, and the namespace must account for every staged file with no
	// churn leftovers.
	byteIdentical := !badBytes.Load()
	full := make([]byte, e8HotSize)
	for i := range hotHandles {
		if _, err := hotHandles[i].ReadAt(full, 0); err != nil {
			return row, false, false, noTel, err
		}
		if !bytes.Equal(full, hotPat) {
			byteIdentical = false
		}
	}
	after, err := m.Statfs()
	if err != nil {
		return row, false, false, noTel, err
	}
	consistent := after.Files == before.Files

	row.Ops = totalOps.Load()
	row.WallMs = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		row.OpsPerSec = float64(row.Ops) / wall.Seconds()
	}
	return row, byteIdentical, consistent, s.mux.Telemetry(), nil
}

// RunE8 measures the full client sweep.
func RunE8() (*E8Result, error) {
	res := &E8Result{ByteIdentical: true, Consistent: true}
	var base float64
	for _, g := range e8Goroutines {
		row, identical, consistent, _, err := runE8Config(g, false)
		if err != nil {
			return nil, fmt.Errorf("E8 g=%d: %w", g, err)
		}
		if !identical {
			res.ByteIdentical = false
		}
		if !consistent {
			res.Consistent = false
		}
		if g == 1 {
			base = row.OpsPerSec
			row.Speedup = 1
		} else if base > 0 {
			row.Speedup = row.OpsPerSec / base
		}
		if g == 16 {
			res.OpsAt16 = row.OpsPerSec
			res.ScaleAt16 = row.Speedup
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Check requires a measured row per client count and concurrency that
// never trades away correctness: every cached read saw the staged pattern
// and the namespace accounting balanced. Throughput itself is not gated;
// EXPERIMENTS.md records it.
func (r *E8Result) Check(Gates) error {
	var v verdict
	v.require(len(r.Rows) == len(e8Goroutines), "want %d sweep rows, got %d", len(e8Goroutines), len(r.Rows))
	for i, row := range r.Rows {
		v.require(i < len(e8Goroutines) && row.G == e8Goroutines[i], "row %d: goroutines = %d, want %v", i, row.G, e8Goroutines)
		v.require(row.Ops > 0 && row.OpsPerSec > 0, "row g=%d: no ops measured (ops=%d ops/s=%.0f)", row.G, row.Ops, row.OpsPerSec)
	}
	v.require(r.OpsAt16 > 0, "missing headline OpsAt16 measurement")
	v.require(r.ByteIdentical, "a concurrent cached read returned bytes != staged pattern")
	v.require(r.Consistent, "Statfs accounting did not balance after churn")
	return v.err()
}
