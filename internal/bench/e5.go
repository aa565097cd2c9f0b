package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// E5 — migration engine throughput: serial vs. parallel move execution.
//
// Every other experiment measures virtual time, where concurrency cannot
// help (the simclock models total serialized device time). E5 instead
// measures what the parallel migration engine actually changes: *wall
// clock* overlap of per-device service time. Each tier's file system is
// wrapped in a governor (slowFS) that holds a per-device lock for a real
// duration proportional to the bytes served — a queued device that serves
// one request at a time. Moves between different device pairs can then
// overlap in wall time exactly as far as the engine's worker pool, per-tier
// throttles, and pipelined copier allow, independent of host core count.
//
// The workload is multi-file and multi-tier: files staged 12/3/3 across
// PM/SSD/HDD (a demotion-heavy round between the fast tiers with a trickle
// through the rotational tier, the shape a capacity-pressure policy emits),
// then every file rotated to the next tier in one Policy Runner round. The
// engine must produce identical post-round placement at every worker count
// (determinism check) while the wall time drops. The HDD keeps its
// width-1 throttle, so the six moves that touch it serialize by design;
// the speedup comes from overlapping the twelve PM→SSD moves and from the
// pipelined copier overlapping source reads with destination writes.

// e5ServiceTime is the governor's service rate: wall time charged per byte
// read from or written to a tier (12 ms per MiB, ~3 ms per 256 KiB
// migration chunk). Per-chunk sleeps must sit well above the platform's
// timer resolution (time.Sleep floors around 1 ms on stock Linux HZ
// settings) or granularity noise, not device service time, dominates the
// measurement.
const e5ServiceTime = 12 * time.Millisecond / (1 << 20)

// e5 workload shape.
const (
	e5Files    = 18
	e5FileSize = 2 << 20 // 2 MiB per file
)

// e5StageTier places file i before the measured round: four of every six
// files on PM, one on SSD, one on HDD — interleaved so the serialized
// rotational-tier moves spread across the round instead of forming a tail.
func e5StageTier(i int) int {
	switch i % 6 {
	case 4:
		return 1
	case 5:
		return 2
	default:
		return 0
	}
}

// E5Row is one engine configuration's measurement.
type E5Row struct {
	Workers    int
	WallMs     float64 // wall-clock time of the migration round
	VirtualMs  float64 // virtual time charged (identical across rows)
	Executed   int
	BytesMoved int64
	Speedup    float64 // serial wall / this wall
}

// E5Result is the migration-throughput comparison.
type E5Result struct {
	Rows []E5Row
	// SpeedupAt4 and SpeedupAt8 are the wall-clock speedups over the
	// serial engine at 4 and 8 workers.
	SpeedupAt4 float64
	SpeedupAt8 float64
	// Deterministic reports whether every configuration produced the same
	// post-migration placement (per file, per tier).
	Deterministic bool
}

// slowFS wraps a native file system with a per-device service-time
// governor modelling a FIFO queue server: each request completes at
// max(now, device busy-until) + size·rate, and busy-until advances by the
// nominal service time. The requester sleeps until its completion stamp
// *outside* the device lock, so timer overshoot delays only that caller —
// the device's queue drains at the modelled rate regardless of host timer
// resolution. Metadata calls pass through. The governor starts disarmed so
// workload staging is free; arm() turns it on for the measured round.
type slowFS struct {
	vfs.FileSystem
	mu        sync.Mutex
	busyUntil time.Time
	armed     atomic.Bool
	// syncCharge is the bytes-equivalent charged per fsync (flush work is
	// not proportional to the request size). Zero — the E5 default — makes
	// fsync free, so adding the knob changes no existing measurement.
	syncCharge int
	// rateNsPerMiB overrides the service rate (wall ns per MiB served) when
	// > 0; zero keeps the e5ServiceTime default, so existing experiments
	// measure exactly what they did. E10 gives each tier its own rate and
	// rewrites it mid-run to model a device browning out.
	rateNsPerMiB atomic.Int64
}

func (s *slowFS) serve(n int) {
	if n <= 0 || !s.armed.Load() {
		return
	}
	d := time.Duration(n) * e5ServiceTime
	if per := s.rateNsPerMiB.Load(); per > 0 {
		d = time.Duration(int64(n) * per / (1 << 20))
	}
	s.mu.Lock()
	now := time.Now()
	if s.busyUntil.Before(now) {
		s.busyUntil = now
	}
	s.busyUntil = s.busyUntil.Add(d)
	wake := s.busyUntil
	s.mu.Unlock()
	time.Sleep(time.Until(wake))
}

func (s *slowFS) Open(path string) (vfs.File, error) {
	f, err := s.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, fs: s}, nil
}

func (s *slowFS) Create(path string) (vfs.File, error) {
	f, err := s.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, fs: s}, nil
}

// slowFile charges the governor on the data path.
type slowFile struct {
	vfs.File
	fs *slowFS
}

func (f *slowFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.serve(len(p))
	return f.File.ReadAt(p, off)
}

func (f *slowFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.serve(len(p))
	return f.File.WriteAt(p, off)
}

func (f *slowFile) Sync() error {
	f.fs.serve(f.fs.syncCharge)
	return f.File.Sync()
}

// slowTiers are one stack's per-tier slowFS governors.
type slowTiers [3]*slowFS

// govern is a stackSpec.govern that puts tier i behind a fresh governor.
func (g *slowTiers) govern(i int, fs vfs.FileSystem) vfs.FileSystem {
	g[i] = &slowFS{FileSystem: fs}
	return g[i]
}

// arm turns on every tier's service-time governor.
func (g *slowTiers) arm() {
	for _, s := range g {
		s.armed.Store(true)
	}
}

// e5RotatePolicy plans one whole-file move per file, from its current tier
// to the next (mod 3) — a deterministic shuffle exercising all six directed
// device pairs.
func e5RotatePolicy() policy.Policy {
	return policy.Func{
		PolicyName: "e5-rotate",
		Plan: func(tiers []policy.TierInfo, files []policy.FileStat, _ time.Duration) []policy.Move {
			var moves []policy.Move
			for _, f := range files {
				if len(f.Tiers) != 1 {
					continue
				}
				src := f.Tiers[0]
				dst := (src + 1) % 3
				moves = append(moves, policy.Move{
					Path: f.Path, SrcTier: src, DstTier: dst, Off: 0, N: -1,
					Promote: dst == 0,
				})
			}
			return moves
		},
	}
}

// runE5Config stages the workload, rotates it once, and reports the round's
// stats plus the final placement.
func runE5Config(workers int) (core.MigrationStats, map[string][3]int64, error) {
	var govs slowTiers
	s, err := newStack(stackSpec{
		mux:    core.Config{Name: "mux-e5", Policy: policy.Pinned{Tier: 0}, MigrationWorkers: workers},
		govern: govs.govern,
	})
	if err != nil {
		return core.MigrationStats{}, nil, err
	}
	if err := s.mux.Mkdir("/e5"); err != nil {
		return core.MigrationStats{}, nil, err
	}
	payload := make([]byte, e5FileSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < e5Files; i++ {
		path := fmt.Sprintf("/e5/f%02d", i)
		f, err := s.mux.Create(path)
		if err != nil {
			return core.MigrationStats{}, nil, err
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			return core.MigrationStats{}, nil, err
		}
		f.Close()
		if dst := e5StageTier(i); dst != 0 {
			if _, err := s.mux.Migrate(path, 0, dst); err != nil {
				return core.MigrationStats{}, nil, err
			}
		}
	}
	s.mux.SetPolicy(e5RotatePolicy())
	govs.arm()
	st, err := s.mux.RunPolicyOnce()
	if err != nil {
		return core.MigrationStats{}, nil, err
	}
	return st, s.placement("/e5", e5Files), nil
}

// RunE5 measures migration-round wall time at 1, 4, and 8 workers.
func RunE5() (*E5Result, error) {
	res := &E5Result{Deterministic: true}
	var baseWall float64
	var basePlacement map[string][3]int64
	for _, workers := range []int{1, 4, 8} {
		st, placement, err := runE5Config(workers)
		if err != nil {
			return nil, fmt.Errorf("E5 workers=%d: %w", workers, err)
		}
		row := E5Row{
			Workers:    workers,
			WallMs:     float64(st.Wall) / float64(time.Millisecond),
			VirtualMs:  float64(st.Virtual) / float64(time.Millisecond),
			Executed:   st.Executed,
			BytesMoved: st.BytesMoved,
		}
		if workers == 1 {
			baseWall = row.WallMs
			basePlacement = placement
			row.Speedup = 1
		} else {
			if row.WallMs > 0 {
				row.Speedup = baseWall / row.WallMs
			}
			for path, want := range basePlacement {
				if placement[path] != want {
					res.Deterministic = false
				}
			}
		}
		switch workers {
		case 4:
			res.SpeedupAt4 = row.Speedup
		case 8:
			res.SpeedupAt8 = row.Speedup
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Check requires identical placement and the full workload moved at every
// worker count, and wall time improving with workers. The acceptance bar
// (>= 2x at 4 workers) is gated loosely enough to hold under load and the
// race detector, and recorded precisely in EXPERIMENTS.md.
func (r *E5Result) Check(Gates) error {
	var v verdict
	v.require(len(r.Rows) == 3, "want rows for 1/4/8 workers, got %d", len(r.Rows))
	v.require(r.Deterministic, "post-migration placement diverged across worker counts")
	for _, row := range r.Rows {
		v.require(row.Executed == e5Files, "workers=%d executed %d moves, want %d", row.Workers, row.Executed, e5Files)
		v.require(row.BytesMoved == int64(e5Files)*e5FileSize, "workers=%d moved %d bytes", row.Workers, row.BytesMoved)
	}
	v.require(r.SpeedupAt4 >= 1.3, "4-worker speedup = %.2fx, want clearly > 1x", r.SpeedupAt4)
	return v.err()
}
