package bench

import (
	"bytes"
	"fmt"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// E7 — data-path fan-out throughput: serial vs. parallel multi-tier
// reads/writes/fsyncs.
//
// Like E5 this measures *wall clock*, not virtual time (the simclock models
// total serialized device time, which fan-out never changes): each tier
// sits behind the same slowFS service-time governor, and the workload is
// files deliberately striped in thirds across PM/SSD/HDD. A full-file read
// or write therefore touches all three devices; serial dispatch pays the
// sum of their service times, the fan-out engine (core/fanout.go) pays the
// max. fsync fans out the same way, with a fixed per-device flush charge.
// Every configuration must produce byte-identical data and identical final
// placement — the fan-out is allowed to change wall time and nothing else.

// e7 workload shape: 6 files, 3 MiB each, striped 1 MiB per tier. At the
// governor's 12 ms/MiB rate a full-file serial read costs ~36 ms and a
// fanned-out one ~12 ms.
const (
	e7Files      = 6
	e7FileSize   = 3 << 20
	e7SyncCharge = 256 << 10 // ~3 ms of flush per device per fsync
)

// E7Row is one fan-out configuration's measurement.
type E7Row struct {
	Width        int     // core.Config.DataFanout (1 = serial dispatch)
	ReadWallMs   float64 // full-file reads over all striped files
	WriteWallMs  float64 // full-file overwrites over all striped files
	SyncWallMs   float64 // fsync of every file
	ReadSpeedup  float64 // serial read wall / this read wall
	WriteSpeedup float64
	SyncSpeedup  float64
}

// E7Result is the data-path fan-out comparison.
type E7Result struct {
	Rows []E7Row
	// Speedups at the widest configuration measured.
	ReadSpeedup  float64
	WriteSpeedup float64
	SyncSpeedup  float64
	// ByteIdentical reports whether every configuration read back exactly
	// the written pattern.
	ByteIdentical bool
	// Deterministic reports whether every configuration left the same
	// per-file per-tier placement.
	Deterministic bool
}

// runE7Config stages the striped working set (governors disarmed), then
// measures the read, overwrite, and fsync phases under the governors.
func runE7Config(width int) (E7Row, map[string][3]int64, bool, error) {
	row := E7Row{Width: width}
	var govs slowTiers
	s, err := newStack(stackSpec{
		mux:    core.Config{Name: "mux-e7", Policy: policy.Pinned{Tier: 0}, DataFanout: width},
		govern: govs.govern,
	})
	if err != nil {
		return row, nil, false, err
	}
	for _, g := range govs {
		g.syncCharge = e7SyncCharge
	}
	if err := s.mux.Mkdir("/e7"); err != nil {
		return row, nil, false, err
	}
	pattern := make([]byte, e7FileSize)
	for i := range pattern {
		pattern[i] = byte(i*13 + i/311)
	}
	const third = int64(e7FileSize / 3)
	files := make([]vfs.File, e7Files)
	for i := range files {
		path := fmt.Sprintf("/e7/f%02d", i)
		f, err := s.mux.Create(path)
		if err != nil {
			return row, nil, false, err
		}
		if _, err := f.WriteAt(pattern, 0); err != nil {
			return row, nil, false, err
		}
		if _, err := s.mux.MigrateRange(path, 0, 1, third, third); err != nil {
			return row, nil, false, err
		}
		if _, err := s.mux.MigrateRange(path, 0, 2, 2*third, -1); err != nil {
			return row, nil, false, err
		}
		files[i] = f
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()

	govs.arm()
	byteIdentical := true
	buf := make([]byte, e7FileSize)

	start := time.Now()
	for _, f := range files {
		if _, err := f.ReadAt(buf, 0); err != nil {
			return row, nil, false, err
		}
		if !bytes.Equal(buf, pattern) {
			byteIdentical = false
		}
	}
	row.ReadWallMs = float64(time.Since(start)) / float64(time.Millisecond)

	start = time.Now()
	for _, f := range files {
		if _, err := f.WriteAt(pattern, 0); err != nil {
			return row, nil, false, err
		}
	}
	row.WriteWallMs = float64(time.Since(start)) / float64(time.Millisecond)

	start = time.Now()
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return row, nil, false, err
		}
	}
	row.SyncWallMs = float64(time.Since(start)) / float64(time.Millisecond)

	// Post-measurement readback, off the clock: the overwrite must not have
	// perturbed the bytes either.
	for _, f := range files {
		if _, err := f.ReadAt(buf, 0); err != nil {
			return row, nil, false, err
		}
		if !bytes.Equal(buf, pattern) {
			byteIdentical = false
		}
	}
	return row, s.placement("/e7", e7Files), byteIdentical, nil
}

// RunE7 measures striped-file read/write/fsync wall time at fan-out widths
// 1 (serial), 2, and 4 (all three per-tier groups concurrent).
func RunE7() (*E7Result, error) {
	res := &E7Result{ByteIdentical: true, Deterministic: true}
	var base E7Row
	var basePlacement map[string][3]int64
	for _, width := range []int{1, 2, 4} {
		row, placement, identical, err := runE7Config(width)
		if err != nil {
			return nil, fmt.Errorf("E7 width=%d: %w", width, err)
		}
		if !identical {
			res.ByteIdentical = false
		}
		if width == 1 {
			base = row
			basePlacement = placement
			row.ReadSpeedup, row.WriteSpeedup, row.SyncSpeedup = 1, 1, 1
		} else {
			if row.ReadWallMs > 0 {
				row.ReadSpeedup = base.ReadWallMs / row.ReadWallMs
			}
			if row.WriteWallMs > 0 {
				row.WriteSpeedup = base.WriteWallMs / row.WriteWallMs
			}
			if row.SyncWallMs > 0 {
				row.SyncSpeedup = base.SyncWallMs / row.SyncWallMs
			}
			for path, want := range basePlacement {
				if placement[path] != want {
					res.Deterministic = false
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	last := res.Rows[len(res.Rows)-1]
	res.ReadSpeedup = last.ReadSpeedup
	res.WriteSpeedup = last.WriteSpeedup
	res.SyncSpeedup = last.SyncSpeedup
	return res, nil
}

// Check requires the fan-out to change wall time and nothing else: bytes
// and placement identical at every width. At TestGates it adds the
// acceptance floor, >= 1.5x read throughput at full width (measured
// ~2.8x, recorded precisely in EXPERIMENTS.md), with writes and fsyncs
// overlapping the same way. The wall-clock ratios hold only when the
// modeled device sleeps dominate CPU time, which the race detector breaks.
func (r *E7Result) Check(g Gates) error {
	var v verdict
	v.require(len(r.Rows) == 3, "want rows for widths 1/2/4, got %d", len(r.Rows))
	v.require(r.ByteIdentical, "fan-out read back different bytes than serial dispatch")
	v.require(r.Deterministic, "final placement diverged across fan-out widths")
	if g >= TestGates {
		v.require(r.ReadSpeedup >= 1.5, "full-width read speedup = %.2fx, want >= 1.5x", r.ReadSpeedup)
		v.require(r.WriteSpeedup >= 1.3, "full-width write speedup = %.2fx, want clearly > 1x", r.WriteSpeedup)
		v.require(r.SyncSpeedup >= 1.3, "full-width sync speedup = %.2fx, want clearly > 1x", r.SyncSpeedup)
	}
	return v.err()
}
