package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/device"
	"muxfs/internal/policy"
)

// E11 — crash consistency: deterministic crash-point sweep + recovery speed.
//
// Part one replays the bugfix methodology as a regression experiment: a
// device-layer CrashPoint counts every durability step (page persist) across
// all four devices of the Mux stack, and for each metadata operation the
// sweep re-runs the op crashing after the i-th step for every i, remounts,
// and checks the full consistency contract — recovery succeeds, the
// post-recovery scrub succeeds, fsck reports no leaked or double-referenced
// extents, and a second dry-run scrub finds zero residual orphans. The
// development-time version of this sweep (internal/fstest, run by
// TestMuxCrashSweep) caught five ordering bugs that are fixed in this tree:
// destructive tier ops (rename/remove/truncate/punch) used to mutate tier
// state before their journal record committed, and partially-flushed group
// commits could strand batch effects. The experiment asserts the fix holds:
// every crash point, zero violations.
//
// Part two measures how fast the recovered state comes back. Journal replay
// applies per-inode record streams on RecoveryWorkers goroutines (the
// namespace-structural pass stays ordered) and fsck shards per-file checks
// the same way, so recovery wall time is compared at RecoveryWorkers=1
// (fully serial) vs GOMAXPROCS across namespace sizes. A third phase holds
// the file count fixed and churns overwrites, comparing replay with periodic
// checkpointing on vs off: with it, replay cost is O(live state + delta
// since the last checkpoint) instead of O(full history).
//
// Timing here is wall clock (goroutine parallelism is invisible to virtual
// time); the sweep itself is deterministic.

const (
	e11FileData  = 4 << 10 // bytes written per namespace file
	e11DirFanout = 256     // files per directory in the big namespace
)

// E11SweepRow is one operation's crash-point coverage.
type E11SweepRow struct {
	Op         string
	Points     int // crash points swept (every durability step, plus the clean run)
	Violations int // consistency-contract violations (must be 0)
}

// E11RecoveryRow compares serial vs parallel recovery at one namespace size.
type E11RecoveryRow struct {
	Files            int
	Workers          int     // the parallel configuration's worker count
	ReplaySerialMs   float64 // journal replay, RecoveryWorkers=1
	ReplayParallelMs float64
	ReplaySpeedup    float64
	FsckSerialMs     float64
	FsckParallelMs   float64
	FsckSpeedup      float64
}

// E11CheckpointRow compares replay of the full history against replay from
// the periodic checkpoint, at identical logical state: the work each
// replay does (records applied, committed log bytes read), which repeats
// exactly and is gated, and its wall time, which is reported only.
type E11CheckpointRow struct {
	Files             int
	ChurnWrites       int     // overwrites applied after the initial population
	FullLogMs         float64 // replay with periodic checkpointing disabled
	CheckpointMs      float64 // replay from the periodic checkpoint (O(delta))
	Speedup           float64 // FullLogMs / CheckpointMs
	FullLogRecords    int
	CheckpointRecords int
	FullLogBytes      int64
	CheckpointBytes   int64
	RecordRatio       float64 // FullLogRecords / CheckpointRecords
	ByteRatio         float64 // FullLogBytes / CheckpointBytes
}

// E11Result is the crash-consistency experiment.
type E11Result struct {
	Sweep       []E11SweepRow
	PointsSwept int
	Violations  int
	Recovery    []E11RecoveryRow
	// ReplaySpeedupAtMax is the replay speedup at the largest namespace.
	ReplaySpeedupAtMax float64
	Checkpoint         E11CheckpointRow
}

// e11Stack is a three-tier Mux plus a metadata device, with one CrashPoint
// ordering durability steps across all four devices.
type e11Stack struct {
	*stack
	cp *device.CrashPoint
}

func newE11Stack(workers int, ckptBytes int64, pmCap int64) (*e11Stack, error) {
	s, err := newStack(stackSpec{
		mux: core.Config{
			Name:            "mux-e11",
			Policy:          policy.Pinned{Tier: 0},
			RecoveryWorkers: workers,
			CheckpointBytes: ckptBytes,
		},
		caps:    [3]int64{0: pmCap},
		metaCap: 1 << 30,
	})
	if err != nil {
		return nil, err
	}
	cp := device.NewCrashPoint()
	for _, d := range append(s.devs[:], s.meta) {
		d.SetCrashPoint(cp)
	}
	return &e11Stack{stack: s, cp: cp}, nil
}

func e11Pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + salt
	}
	return p
}

func e11WriteFile(m *core.Mux, path string, data []byte) error {
	f, err := m.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := mustWrite(f, data, 0); err != nil {
		return err
	}
	return f.Sync()
}

// e11Op is one swept metadata operation: setup runs synced before the crash
// point arms; op is the operation under test. verify, when set, holds the
// recovered stack to the op's own contract on top of the shared one.
type e11Op struct {
	name   string
	setup  func(m *core.Mux) error
	op     func(m *core.Mux) error
	verify func(m *core.Mux) error
}

// e11RoundFiles are the files the policy-round op moves: the first two
// PM→SSD, the third SSD→PM.
var e11RoundFiles = []string{"/e11/ra", "/e11/rb", "/e11/rc"}

func e11RoundPayload(i int) []byte { return e11Pattern(32<<10, byte(20+i)) }

// e11PolicyRound runs one serial policy round of three moves through one
// migration batch. The first OCC validation finds the SSD→PM file's first
// block rewritten with its own bytes, so that move conflicts and retries;
// its retry syncs only PM, so the SSD copies rely on the tier barrier.
func e11PolicyRound(m *core.Mux) error {
	m.SetMigrationWorkers(1) // serial copies keep the device op order fixed
	m.SetPolicy(policy.Func{PolicyName: "e11-round", Plan: func([]policy.TierInfo, []policy.FileStat, time.Duration) []policy.Move {
		return []policy.Move{
			{Path: e11RoundFiles[0], SrcTier: 0, DstTier: 1, N: -1},
			{Path: e11RoundFiles[1], SrcTier: 0, DstTier: 1, N: -1},
			{Path: e11RoundFiles[2], SrcTier: 1, DstTier: 0, N: -1, Promote: true},
		}
	}})
	dirtied := false
	m.SetMigrationInterleave(func(int) {
		if dirtied {
			return
		}
		dirtied = true
		if f, err := m.Open(e11RoundFiles[2]); err == nil {
			_, _ = f.WriteAt(e11RoundPayload(2)[:4096], 0)
			f.Close()
		}
	})
	defer m.SetMigrationInterleave(nil)
	retries := m.OCC().Retries
	st, err := m.RunPolicyOnce()
	if err == nil && (st.Executed != len(e11RoundFiles) || m.OCC().Retries != retries+1) {
		return fmt.Errorf("policy round executed %d moves with %d retries, want %d and 1",
			st.Executed, m.OCC().Retries-retries, len(e11RoundFiles))
	}
	return err
}

// e11VerifyEither checks that the file reads want under exactly one of
// its two paths: a rename either happened or did not.
func e11VerifyEither(m *core.Mux, want []byte, paths ...string) error {
	found := 0
	for _, p := range paths {
		f, err := m.Open(p)
		if err != nil {
			continue
		}
		found++
		got := make([]byte, len(want))
		n, err := f.ReadAt(got, 0)
		f.Close()
		if n != len(want) || (err != nil && err != io.EOF) || !bytes.Equal(got, want) {
			return fmt.Errorf("%s lost its bytes (%d read, %v)", p, n, err)
		}
	}
	if found != 1 {
		return fmt.Errorf("the file is at %d of %v", found, paths)
	}
	return nil
}

// e11VerifyRound checks that every file of the round reads its pre-round
// bytes.
func e11VerifyRound(m *core.Mux) error {
	for i, p := range e11RoundFiles {
		f, err := m.Open(p)
		if err != nil {
			return err
		}
		want := e11RoundPayload(i)
		got := make([]byte, len(want))
		n, err := f.ReadAt(got, 0)
		f.Close()
		if n != len(want) || (err != nil && err != io.EOF) || !bytes.Equal(got, want) {
			return fmt.Errorf("%s lost its bytes in the round (%d read, %v)", p, n, err)
		}
	}
	return nil
}

func e11Ops() []e11Op {
	vic := e11Pattern(48<<10, 3)
	base := func(m *core.Mux) error {
		if err := m.Mkdir("/e11"); err != nil {
			return err
		}
		return e11WriteFile(m, "/e11/vic", vic)
	}
	return []e11Op{
		{name: "create", setup: func(m *core.Mux) error { return m.Mkdir("/e11") },
			op: func(m *core.Mux) error { return e11WriteFile(m, "/e11/vic", vic) }},
		{name: "rename", setup: base,
			op: func(m *core.Mux) error { return m.Rename("/e11/vic", "/e11/vic2") }},
		{name: "rename-dir", setup: base,
			op:     func(m *core.Mux) error { return m.Rename("/e11", "/e11b") },
			verify: func(m *core.Mux) error { return e11VerifyEither(m, vic, "/e11/vic", "/e11b/vic") }},
		{name: "remove", setup: base,
			op: func(m *core.Mux) error { return m.Remove("/e11/vic") }},
		{name: "truncate", setup: base,
			op: func(m *core.Mux) error { return m.Truncate("/e11/vic", 10<<10) }},
		{name: "punch", setup: base,
			op: func(m *core.Mux) error {
				f, err := m.Open("/e11/vic")
				if err != nil {
					return err
				}
				defer f.Close()
				return f.PunchHole(8<<10, 24<<10)
			}},
		{name: "migrate-range", setup: base,
			op: func(m *core.Mux) error { _, err := m.MigrateRange("/e11/vic", 0, 2, 0, -1); return err }},
		{name: "set-replica", setup: base,
			op: func(m *core.Mux) error { return m.SetReplica("/e11/vic", 2) }},
		{name: "clear-replica", setup: func(m *core.Mux) error {
			if err := base(m); err != nil {
				return err
			}
			if err := m.SetReplica("/e11/vic", 2); err != nil {
				return err
			}
			return m.Sync()
		},
			op: func(m *core.Mux) error { return m.ClearReplica("/e11/vic") }},
		{name: "policy-round", setup: func(m *core.Mux) error {
			if err := m.Mkdir("/e11"); err != nil {
				return err
			}
			for i, p := range e11RoundFiles {
				if err := e11WriteFile(m, p, e11RoundPayload(i)); err != nil {
					return err
				}
			}
			_, err := m.Migrate(e11RoundFiles[2], 0, 1)
			return err
		},
			op: e11PolicyRound, verify: e11VerifyRound},
		{name: "group-commit", setup: func(m *core.Mux) error { return m.Mkdir("/e11") },
			op: func(m *core.Mux) error {
				// A batch of creates and writes flushed by one group commit.
				for i := 0; i < 4; i++ {
					if err := e11WriteFile(m, fmt.Sprintf("/e11/b%d", i), e11Pattern(8<<10, byte(i))); err != nil {
						return err
					}
				}
				return m.Sync()
			}},
	}
}

// e11CheckContract runs the recovery protocol and the consistency contract
// on a crashed stack, returning a non-nil error on any violation.
func (s *e11Stack) e11CheckContract() error {
	s.mux.Crash()
	if err := s.mux.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if _, err := s.mux.ScrubOrphans(true); err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep := s.mux.Fsck(); !rep.OK() {
		return fmt.Errorf("fsck: %v", rep.Problems)
	}
	if n, err := s.mux.ScrubOrphans(false); err != nil {
		return fmt.Errorf("re-scrub: %w", err)
	} else if n != 0 {
		return fmt.Errorf("scrub left %d orphaned bytes behind", n)
	}
	return nil
}

// e11SweepOne sweeps every crash point of one operation.
func e11SweepOne(op e11Op) (E11SweepRow, error) {
	row := E11SweepRow{Op: op.name}
	// Count run: how many durability steps does the op (plus its covering
	// sync) perform when nothing crashes?
	s, err := newE11Stack(0, 0, 0)
	if err != nil {
		return row, err
	}
	if err := op.setup(s.mux); err != nil {
		return row, fmt.Errorf("%s setup: %w", op.name, err)
	}
	if err := s.mux.Sync(); err != nil {
		return row, err
	}
	s.cp.Reset()
	if err := op.op(s.mux); err != nil {
		return row, fmt.Errorf("%s clean run: %w", op.name, err)
	}
	if err := s.mux.Sync(); err != nil {
		return row, err
	}
	n := int(s.cp.Steps())
	row.Points = n + 1 // i = 0..n inclusive: every step boundary plus the clean run

	for i := 0; i <= n; i++ {
		s, err := newE11Stack(0, 0, 0)
		if err != nil {
			return row, err
		}
		if err := op.setup(s.mux); err != nil {
			return row, fmt.Errorf("%s setup (i=%d): %w", op.name, i, err)
		}
		if err := s.mux.Sync(); err != nil {
			return row, err
		}
		s.cp.Arm(int64(i))
		_ = op.op(s.mux) // errors expected once the crash point trips
		_ = s.mux.Sync()
		s.cp.Disarm()
		if err := s.e11CheckContract(); err != nil {
			row.Violations++
		} else if op.verify != nil && op.verify(s.mux) != nil {
			row.Violations++
		}
	}
	return row, nil
}

func e11FilePath(i int) string {
	return fmt.Sprintf("/d%03d/f%04d", i/e11DirFanout, i%e11DirFanout)
}

// e11Populate builds an n-file namespace, each file carrying e11FileData
// bytes, synced down so recovery replays real per-inode streams.
func e11Populate(s *e11Stack, n int) error {
	data := e11Pattern(e11FileData, 9)
	dirs := (n + e11DirFanout - 1) / e11DirFanout
	for d := 0; d < dirs; d++ {
		if err := s.mux.Mkdir(fmt.Sprintf("/d%03d", d)); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		f, err := s.mux.Create(e11FilePath(i))
		if err != nil {
			return err
		}
		if err := mustWrite(f, data, 0); err != nil {
			f.Close()
			return err
		}
		f.Close()
		if i%4096 == 4095 {
			if err := s.mux.Sync(); err != nil {
				return err
			}
		}
	}
	return s.mux.Sync()
}

// e11MeasureRecovery crashes and recovers the stack with the given worker
// count, returning replay and fsck wall times. Crash+Recover is idempotent,
// so the measurement repeats and keeps the minimum: recovery times at this
// scale are tens of milliseconds, where scheduler noise on a shared host
// easily exceeds the effect being measured.
func e11MeasureRecovery(s *e11Stack, workers int) (replayMs, fsckMs float64, err error) {
	const reps = 3
	s.mux.SetRecoveryWorkers(workers)
	for r := 0; r < reps; r++ {
		s.mux.Crash()
		if err := s.mux.Recover(); err != nil {
			return 0, 0, err
		}
		rm := float64(s.mux.LastRecoveryStats().Replay) / float64(time.Millisecond)
		if _, err := s.mux.ScrubOrphans(true); err != nil {
			return rm, 0, err
		}
		t1 := time.Now()
		rep := s.mux.Fsck()
		fm := float64(time.Since(t1)) / float64(time.Millisecond)
		if !rep.OK() {
			return rm, fm, fmt.Errorf("fsck after recovery: %v", rep.Problems)
		}
		if r == 0 || rm < replayMs {
			replayMs = rm
		}
		if r == 0 || fm < fsckMs {
			fsckMs = fm
		}
	}
	return replayMs, fsckMs, nil
}

// e11RecoveryRow builds one namespace and measures serial vs parallel
// recovery over it. Serial and parallel run against the same crashed device
// state (Recover is idempotent), so the comparison is apples-to-apples.
//
// The parallel configuration uses GOMAXPROCS workers but never fewer than
// two, so the sharded code path is exercised even on a single-core host.
// On one core the two configurations necessarily time the same — the
// Workers column in the report makes that visible rather than hiding it.
func e11RecoveryRow(files int) (E11RecoveryRow, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	row := E11RecoveryRow{Files: files, Workers: workers}
	// PM sized for the data set (the Pinned{0} policy lands everything
	// there), with headroom for metadata and the block-granular allocator.
	pmCap := int64(files)*e11FileData*3 + (64 << 20)
	s, err := newE11Stack(workers, 0, pmCap)
	if err != nil {
		return row, err
	}
	if err := e11Populate(s, files); err != nil {
		return row, err
	}
	row.ReplaySerialMs, row.FsckSerialMs, err = e11MeasureRecovery(s, 1)
	if err != nil {
		return row, err
	}
	row.ReplayParallelMs, row.FsckParallelMs, err = e11MeasureRecovery(s, workers)
	if err != nil {
		return row, err
	}
	if row.ReplayParallelMs > 0 {
		row.ReplaySpeedup = row.ReplaySerialMs / row.ReplayParallelMs
	}
	if row.FsckParallelMs > 0 {
		row.FsckSpeedup = row.FsckSerialMs / row.FsckParallelMs
	}
	return row, nil
}

// e11CheckpointRow measures replay time at identical logical state with
// periodic checkpointing off (replay the full history) vs on (replay the
// last checkpoint plus the delta).
func e11CheckpointRow(files, churn int) (E11CheckpointRow, error) {
	row := E11CheckpointRow{Files: files, ChurnWrites: churn}
	overlay := e11Pattern(e11FileData, 11)
	// run returns the replay's wall time, min of 3 (crash+recover is
	// idempotent), and its stats, which every round repeats.
	run := func(ckptBytes int64) (float64, core.RecoveryStats, error) {
		var st core.RecoveryStats
		pmCap := int64(files)*e11FileData*3 + (64 << 20)
		s, err := newE11Stack(0, ckptBytes, pmCap)
		if err != nil {
			return 0, st, err
		}
		if err := e11Populate(s, files); err != nil {
			return 0, st, err
		}
		for i := 0; i < churn; i++ {
			f, err := s.mux.Open(e11FilePath(i % files))
			if err != nil {
				return 0, st, err
			}
			if err := mustWrite(f, overlay, 0); err != nil {
				f.Close()
				return 0, st, err
			}
			f.Close()
			if i%2048 == 2047 {
				if err := s.mux.Sync(); err != nil {
					return 0, st, err
				}
			}
		}
		if err := s.mux.Sync(); err != nil {
			return 0, st, err
		}
		best := 0.0
		for r := 0; r < 3; r++ {
			s.mux.Crash()
			if err := s.mux.Recover(); err != nil {
				return 0, st, err
			}
			st = s.mux.LastRecoveryStats()
			ms := float64(st.Replay) / float64(time.Millisecond)
			if r == 0 || ms < best {
				best = ms
			}
		}
		return best, st, nil
	}
	// A threshold far above the journal region disables periodic
	// checkpointing: compaction then only happens if the log physically
	// fills, which the 1 GiB metadata device prevents here.
	full, fullSt, err := run(1 << 60)
	if err != nil {
		return row, fmt.Errorf("full-log run: %w", err)
	}
	// The checkpoint threshold scales with the namespace: a compacted
	// snapshot costs a few hundred bytes per file, so files*400 sits just
	// above it and compaction fires every flush or two once churn starts.
	// Replay then covers the snapshot plus a short tail instead of the
	// whole create+churn history.
	ckpt, ckptSt, err := run(int64(files) * 400)
	if err != nil {
		return row, fmt.Errorf("checkpoint run: %w", err)
	}
	row.FullLogMs, row.CheckpointMs = full, ckpt
	if ckpt > 0 {
		row.Speedup = full / ckpt
	}
	row.FullLogRecords, row.CheckpointRecords = fullSt.Records, ckptSt.Records
	row.FullLogBytes, row.CheckpointBytes = fullSt.Bytes, ckptSt.Bytes
	if ckptSt.Records > 0 && ckptSt.Bytes > 0 {
		row.RecordRatio = float64(fullSt.Records) / float64(ckptSt.Records)
		row.ByteRatio = float64(fullSt.Bytes) / float64(ckptSt.Bytes)
	}
	return row, nil
}

// RunE11 runs the crash-point sweep and the recovery-speed measurements.
// The sweep is the same at every size; Smoke shrinks the recovery
// namespaces.
func RunE11(size Size) (*E11Result, error) {
	res := &E11Result{}
	for _, op := range e11Ops() {
		row, err := e11SweepOne(op)
		if err != nil {
			return nil, fmt.Errorf("E11 sweep %s: %w", op.name, err)
		}
		res.Sweep = append(res.Sweep, row)
		res.PointsSwept += row.Points
		res.Violations += row.Violations
	}
	counts := []int{10_000, 40_000, 100_000}
	ckptFiles, churn := 10_000, 60_000
	if size == Smoke {
		counts = []int{2_000, 8_000}
		ckptFiles, churn = 2_000, 12_000
	}
	for _, n := range counts {
		row, err := e11RecoveryRow(n)
		if err != nil {
			return nil, fmt.Errorf("E11 recovery %d files: %w", n, err)
		}
		res.Recovery = append(res.Recovery, row)
		res.ReplaySpeedupAtMax = row.ReplaySpeedup
	}
	ck, err := e11CheckpointRow(ckptFiles, churn)
	if err != nil {
		return nil, fmt.Errorf("E11 checkpoint: %w", err)
	}
	res.Checkpoint = ck
	return res, nil
}

// Check requires every swept op to make durable steps and every crash
// point to recover to a consistent image, and the recovery timings to be
// measured with the sharded path actually parallel. Parallel speedups are
// not gated: on a single core the sharded path runs but cannot beat serial
// time. The checkpoint gate reads replay *work* (snapshot + delta vs full
// history), counted in records applied and log bytes read, so it repeats
// bit for bit; the wall-clock ratio beside it is reported only, since
// other processes on the host decide it.
func (r *E11Result) Check(Gates) error {
	var v verdict
	v.require(len(r.Sweep) == 11, "want 11 swept ops, got %d", len(r.Sweep))
	for _, row := range r.Sweep {
		v.require(row.Points >= 2, "op %s swept only %d crash points; the op made no durable steps", row.Op, row.Points)
		v.require(row.Violations == 0, "op %s: %d crash points violated the recovery contract", row.Op, row.Violations)
	}
	v.require(r.Violations == 0 && r.PointsSwept >= 50, "sweep totals: %d points, %d violations", r.PointsSwept, r.Violations)
	v.require(len(r.Recovery) > 0, "no recovery timing rows")
	for _, row := range r.Recovery {
		v.require(row.Workers >= 2, "parallel config ran with %d workers; want at least 2", row.Workers)
		v.require(row.ReplaySerialMs > 0 && row.ReplayParallelMs > 0 && row.FsckSerialMs > 0 && row.FsckParallelMs > 0,
			"recovery row %d files has a zero timing: %+v", row.Files, row)
	}
	ck := r.Checkpoint
	v.require(ck.FullLogMs > 0 && ck.CheckpointMs > 0, "checkpoint row missing timings: %+v", ck)
	v.require(ck.RecordRatio > 1.2 && ck.ByteRatio > 1.2,
		"checkpointed replay reads %.2fx fewer records and %.2fx fewer bytes, want > 1.2x each (replay must be O(delta), not O(history))",
		ck.RecordRatio, ck.ByteRatio)
	return v.err()
}
