package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muxfs/internal/fs/fsrec"
	"muxfs/internal/fstest"
	"muxfs/internal/journal"
	"muxfs/internal/policy"
	"muxfs/internal/vfs"
)

// --- A recording tier wrapper for the migration-pipeline tests. ---

// tierEvent is one downward call that reached a wrapped tier.
type tierEvent struct {
	tier  string // the tier's FS name
	kind  string // "write", "punch", "fsync" (file handle) or "sync" (FS-level)
	path  string
	stamp uint64 // tierLog.stamp at the time of the call
}

// tierLog records, in one order across every tier it wraps, the writes,
// punches and syncs that reach them. stamp, when set, is sampled for each
// event.
type tierLog struct {
	mu     sync.Mutex
	events []tierEvent
	stamp  func() uint64
}

func (l *tierLog) add(e tierEvent) {
	if l.stamp != nil {
		e.stamp = l.stamp()
	}
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *tierLog) reset() {
	l.mu.Lock()
	l.events = nil
	l.mu.Unlock()
}

func (l *tierLog) snapshot() []tierEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.events)
}

// syncsPerTier counts FS-level and handle syncs by tier name.
func (l *tierLog) syncsPerTier() map[string]int {
	out := map[string]int{}
	for _, e := range l.snapshot() {
		if e.kind == "sync" || e.kind == "fsync" {
			out[e.tier]++
		}
	}
	return out
}

var (
	errInjectedSync  = errors.New("injected sync fault")
	errInjectedWrite = errors.New("injected write fault")
)

// recFS wraps one tier, logging into a shared tierLog. failSync fails that
// many of the next FS-level Syncs (the tier barrier's call); writes to
// failWrite, when set, fail; onSync, when set, runs at the start of every
// FS-level Sync.
type recFS struct {
	vfs.FileSystem
	log       *tierLog
	failSync  atomic.Int32
	failWrite string
	onSync    func()
}

type recFile struct {
	vfs.File
	fs *recFS
}

func (r *recFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, fs: r}, nil
}

func (r *recFS) Create(path string) (vfs.File, error) { return r.wrap(r.FileSystem.Create(path)) }
func (r *recFS) Open(path string) (vfs.File, error)   { return r.wrap(r.FileSystem.Open(path)) }

func (r *recFS) Sync() error {
	if r.onSync != nil {
		r.onSync()
	}
	if r.failSync.Load() > 0 {
		r.failSync.Add(-1)
		return errInjectedSync
	}
	r.log.add(tierEvent{tier: r.Name(), kind: "sync"})
	return r.FileSystem.Sync()
}

func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	if f.Path() == f.fs.failWrite {
		return 0, errInjectedWrite
	}
	f.fs.log.add(tierEvent{tier: f.fs.Name(), kind: "write", path: f.Path()})
	return f.File.WriteAt(p, off)
}

func (f *recFile) Sync() error {
	f.fs.log.add(tierEvent{tier: f.fs.Name(), kind: "fsync", path: f.Path()})
	return f.File.Sync()
}

func (f *recFile) PunchHole(off, n int64) error {
	f.fs.log.add(tierEvent{tier: f.fs.Name(), kind: "punch", path: f.Path()})
	return f.File.PunchHole(off, n)
}

// newRecRig is a meta-journaled three-tier rig whose tiers log into one
// tierLog; the returned wrappers are indexed by tier id.
func newRecRig(t *testing.T) (*rig, *tierLog, []*recFS) {
	t.Helper()
	log := &tierLog{}
	var fss []*recFS
	r := newWrappedRig(t, policy.Pinned{Tier: 0}, true, func(fs vfs.FileSystem) vfs.FileSystem {
		w := &recFS{FileSystem: fs, log: log}
		fss = append(fss, w)
		return w
	})
	return r, log, fss
}

// planned is a policy whose every round plans exactly moves.
func planned(moves ...policy.Move) policy.Policy {
	return policy.Func{PolicyName: "planned", Plan: func([]policy.TierInfo, []policy.FileStat, time.Duration) []policy.Move {
		return slices.Clone(moves)
	}}
}

func pipePayload(i, size int) []byte {
	b := make([]byte, size)
	for k := range b {
		b[k] = byte(k*7 + i*13 + 1)
	}
	return b
}

// stagePM writes n files of size bytes onto the PM tier and syncs them.
func stagePM(t *testing.T, r *rig, n, size int) (paths []string, payloads [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/pipe%02d", i)
		payloads = append(payloads, pipePayload(i, size))
		writeFile(t, r.m, p, payloads[i]).Close()
		paths = append(paths, p)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	return paths, payloads
}

func readAll(t *testing.T, fs vfs.FileSystem, path string) []byte {
	t.Helper()
	got, err := fstest.ReadFileAt(fs, path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return got
}

// tierMap returns path's BLT bytes per tier.
func tierMap(t *testing.T, m *Mux, path string) map[int]int64 {
	t.Helper()
	f, err := m.lookupFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytesPerTier()
}

// --- (a) One barrier per round, whatever the move count. ---

func TestRoundSyncsIndependentOfMoveCount(t *testing.T) {
	var perRound []map[string]int
	for _, n := range []int{1, 8, 32} {
		r, log, fss := newRecRig(t)
		paths, _ := stagePM(t, r, n, 64<<10)
		var moves []policy.Move
		for _, p := range paths {
			moves = append(moves, policy.Move{Path: p, SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1})
		}
		r.m.SetPolicy(planned(moves...))
		// One move conflicts once: its retry re-copies and syncs its
		// destination on its own.
		first := true
		r.m.SetMigrationInterleave(func(int) {
			if first {
				first = false
				h, err := r.m.Open(paths[0])
				if err != nil {
					t.Error(err)
					return
				}
				defer h.Close()
				if _, err := h.WriteAt(pipePayload(0, BlockSize), 0); err != nil {
					t.Error(err)
				}
			}
		})
		log.reset()
		st, err := r.m.RunPolicyOnce()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if st.Executed != n {
			t.Fatalf("n=%d: executed %d moves", n, st.Executed)
		}
		retries := r.m.OCC().Retries
		if retries != 1 {
			t.Fatalf("n=%d: %d OCC retries, want 1", n, retries)
		}
		syncs := log.syncsPerTier()
		total := 0
		for tier, c := range syncs {
			total += c
			limit := 1
			if tier == fss[r.ids.ssd].Name() {
				limit += int(retries)
			}
			if c > limit {
				t.Fatalf("n=%d: tier %s synced %d times in one round, want at most %d", n, tier, c, limit)
			}
		}
		if total > 3+int(retries) {
			t.Fatalf("n=%d: %d tier syncs in one round", n, total)
		}
		perRound = append(perRound, syncs)
	}
	for i := 1; i < len(perRound); i++ {
		if fmt.Sprint(perRound[i]) != fmt.Sprint(perRound[0]) {
			t.Fatalf("tier syncs per round depend on the move count: %v", perRound)
		}
	}
}

// --- (b) Per-file planned order across a Mirror move. ---

func TestRoundKeepsPlannedOrderAcrossMirror(t *testing.T) {
	r, log, fss := newRecRig(t)
	x, y := pipePayload(1, 128<<10), pipePayload(2, 32<<10)
	writeFile(t, r.m, "/x", x).Close()
	writeFile(t, r.m, "/y", y).Close()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	log.reset()
	st, err := r.m.executeMoves([]policy.Move{
		{Path: "/x", SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1},
		{Path: "/y", Mirror: true, DstTier: r.ids.hdd},
		{Path: "/x", SrcTier: r.ids.ssd, DstTier: r.ids.hdd, Off: 0, N: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 3 || st.MirrorsCreated != 1 {
		t.Fatalf("stats = %+v, want 3 executed moves, one mirror", st)
	}
	if got := tierMap(t, r.m, "/x"); got[r.ids.hdd] != int64(len(x)) || len(got) != 1 {
		t.Fatalf("/x placement = %v, want all of it on hdd", got)
	}
	if rep, _ := r.m.Replica("/y"); rep != r.ids.hdd {
		t.Fatalf("/y replica = %d, want %d", rep, r.ids.hdd)
	}
	first := func(tier int, path string) int {
		for i, e := range log.snapshot() {
			if e.kind == "write" && e.tier == fss[tier].Name() && e.path == path {
				return i
			}
		}
		t.Fatalf("no write of %s reached tier %d", path, tier)
		return -1
	}
	if a, b, c := first(r.ids.ssd, "/x"), first(r.ids.hdd, "/y"), first(r.ids.hdd, "/x"); !(a < b && b < c) {
		t.Fatalf("moves ran out of planned order: /x→ssd at %d, mirror /y at %d, /x→hdd at %d", a, b, c)
	}
	if !bytes.Equal(readAll(t, r.m, "/x"), x) || !bytes.Equal(readAll(t, r.m, "/y"), y) {
		t.Fatal("data changed by the round")
	}
}

// --- (c) Worker count changes interleaving, never outcomes. ---

// splitRotatePolicy rotates every file one tier onward and, for every
// third file, plans a second move of its bytes past 64 KiB one tier
// further — a path repeated within the round, so the round runs as several
// batches. (N = -1 keeps both moves at the same scheduler cost, so the
// runner's stable sort leaves them in this order.)
func splitRotatePolicy() policy.Policy {
	return policy.Func{PolicyName: "split-rotate", Plan: func(_ []policy.TierInfo, files []policy.FileStat, _ time.Duration) []policy.Move {
		files = slices.Clone(files)
		slices.SortFunc(files, func(a, b policy.FileStat) int {
			if a.Path < b.Path {
				return -1
			}
			return 1
		})
		var moves []policy.Move
		for i, fs := range files {
			if len(fs.Tiers) != 1 {
				continue
			}
			src := fs.Tiers[0]
			dst := (src + 1) % 3
			moves = append(moves, policy.Move{Path: fs.Path, SrcTier: src, DstTier: dst, Off: 0, N: -1})
			if i%3 == 0 {
				moves = append(moves, policy.Move{Path: fs.Path, SrcTier: dst, DstTier: (dst + 1) % 3, Off: 64 << 10, N: -1})
			}
		}
		return moves
	}}
}

func TestMigrationWorkersEquivalent(t *testing.T) {
	const files = 9
	var (
		want      map[string]map[int]int64
		wantStats MigrationStats
	)
	for _, workers := range []int{1, 2, 4} {
		r := newRig(t, policy.Pinned{Tier: 0}, true)
		r.m.SetMigrationWorkers(workers)
		payloads := stageRotateWorkload(t, r, files)
		r.m.SetPolicy(splitRotatePolicy())
		for round := 0; round < 2; round++ {
			st, err := r.m.RunPolicyOnce()
			if err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
			if st.Skipped != 0 || st.Executed != st.Planned {
				t.Fatalf("workers=%d round %d: stats %+v", workers, round, st)
			}
			if round == 0 {
				st.Virtual, st.Wall = 0, 0
				if workers == 1 {
					wantStats = st
				} else if st != wantStats {
					t.Fatalf("workers=%d: stats %+v, serial %+v", workers, st, wantStats)
				}
			}
		}
		got := placementOf(t, r, files)
		if workers == 1 {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: placement %v, serial %v", workers, got, want)
		}
		for i := 0; i < files; i++ {
			if !bytes.Equal(readAll(t, r.m, fmt.Sprintf("/rot%02d", i)), payloads[i]) {
				t.Fatalf("workers=%d: file %d corrupted", workers, i)
			}
		}
		if rep := r.m.Fsck(); !rep.OK() {
			t.Fatalf("workers=%d: fsck: %v", workers, rep.Problems)
		}
	}
}

// --- (d) A failed barrier aborts the whole batch. ---

func TestBarrierFaultAbortsBatch(t *testing.T) {
	r, _, fss := newRecRig(t)
	const size = 96 << 10
	paths, payloads := stagePM(t, r, 3, size)
	var moves []policy.Move
	for _, p := range paths {
		moves = append(moves, policy.Move{Path: p, SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1})
	}
	r.m.SetPolicy(planned(moves...))

	fss[r.ids.ssd].failSync.Store(1)
	if _, err := r.m.RunPolicyOnce(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("round with a failing barrier: err = %v, want the injected fault", err)
	}
	for i, p := range paths {
		if got := tierMap(t, r.m, p); got[r.ids.pm] != size || len(got) != 1 {
			t.Fatalf("%s repointed by an aborted batch: %v", p, got)
		}
		if n := tierBytes(t, r.m, r.ids.pm, p); n != size {
			t.Fatalf("%s: aborted batch punched the source (%d bytes left)", p, n)
		}
		if !bytes.Equal(readAll(t, r.m, p), payloads[i]) {
			t.Fatalf("%s corrupted by an aborted batch", p)
		}
		f, _ := r.m.lookupFile(p)
		f.mu.Lock()
		migrating := f.migrating
		f.mu.Unlock()
		if migrating {
			t.Fatalf("%s: migration window left open", p)
		}
	}

	st, err := r.m.RunPolicyOnce()
	if err != nil {
		t.Fatalf("next round: %v", err)
	}
	if st.Executed != len(paths) {
		t.Fatalf("next round executed %d moves", st.Executed)
	}
	for i, p := range paths {
		if got := tierMap(t, r.m, p); got[r.ids.ssd] != size || len(got) != 1 {
			t.Fatalf("%s placement after the retry round: %v", p, got)
		}
		if n := tierBytes(t, r.m, r.ids.pm, p); n != 0 {
			t.Fatalf("%s: %d source bytes left after the retry round", p, n)
		}
		if !bytes.Equal(readAll(t, r.m, p), payloads[i]) {
			t.Fatalf("%s corrupted", p)
		}
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

// TestCopyFaultStopsDispatch fails the second job's copy: that job aborts
// with its source intact, the job before it still commits, and the job
// after it never starts (the first hard error stops dispatch).
func TestCopyFaultStopsDispatch(t *testing.T) {
	r, _, fss := newRecRig(t)
	const size = 64 << 10
	paths, payloads := stagePM(t, r, 3, size)
	var moves []policy.Move
	for _, p := range paths {
		moves = append(moves, policy.Move{Path: p, SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1})
	}
	r.m.SetMigrationWorkers(1)
	r.m.SetPolicy(planned(moves...))
	fss[r.ids.ssd].failWrite = paths[1]
	st, err := r.m.RunPolicyOnce()
	if !errors.Is(err, errInjectedWrite) {
		t.Fatalf("round err = %v, want the injected write fault", err)
	}
	if st.Executed != 1 {
		t.Fatalf("executed %d moves, want 1", st.Executed)
	}
	want := []int{r.ids.ssd, r.ids.pm, r.ids.pm}
	for i, p := range paths {
		if got := tierMap(t, r.m, p); got[want[i]] != size || len(got) != 1 {
			t.Fatalf("%s placement = %v, want all on tier %d", p, got, want[i])
		}
		if !bytes.Equal(readAll(t, r.m, p), payloads[i]) {
			t.Fatalf("%s corrupted", p)
		}
	}
	if n := tierBytes(t, r.m, r.ids.pm, paths[1]); n != size {
		t.Fatalf("failed job punched its source (%d bytes left)", n)
	}
	fss[r.ids.ssd].failWrite = ""
	if _, err := r.m.RunPolicyOnce(); err != nil {
		t.Fatalf("next round: %v", err)
	}
	if got := tierMap(t, r.m, paths[1]); got[r.ids.ssd] != size {
		t.Fatalf("%s placement after the next round = %v", paths[1], got)
	}
}

// TestPunchSparesRangesRewrittenToSource truncates and rewrites a file
// after its move committed but before the batch punches its source: the
// rewrite lands on the source tier again, and the punch must leave it.
func TestPunchSparesRangesRewrittenToSource(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	const size = 64 << 10
	paths, _ := stagePM(t, r, 2, size)
	fresh := pipePayload(9, BlockSize)
	calls := 0
	r.m.SetMigrationInterleave(func(int) {
		// The second job's validation: the first job has committed.
		if calls++; calls != 2 {
			return
		}
		h, err := r.m.Open(paths[0])
		if err != nil {
			t.Error(err)
			return
		}
		defer h.Close()
		if err := h.Truncate(0); err != nil {
			t.Error(err)
		}
		if _, err := h.WriteAt(fresh, 0); err != nil {
			t.Error(err)
		}
	})
	st, err := r.m.executeMoves([]policy.Move{
		{Path: paths[0], SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1},
		{Path: paths[1], SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1},
	})
	if err != nil || st.Executed != 2 {
		t.Fatalf("round: %+v, %v", st, err)
	}
	if got := readAll(t, r.m, paths[0]); !bytes.Equal(got, fresh) {
		t.Fatalf("%s lost its rewrite to the punch (%d bytes read)", paths[0], len(got))
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

// TestRemoveDuringBatch removes two files of a batch mid-round: one whose
// move has copied but not committed, which must skip rather than repoint
// the removed file's BLT behind Remove's usage accounting, and one whose
// move has committed, whose punch must leave the tier files to the
// remove's deferred reclaim instead of failing the round on a closed
// handle.
func TestRemoveDuringBatch(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	const size = 64 << 10
	paths, payloads := stagePM(t, r, 3, size)
	calls := 0
	r.m.SetMigrationInterleave(func(int) {
		calls++
		var victim string
		switch calls {
		case 1: // paths[0] validating: paths[1] copied, not committed
			victim = paths[1]
		case 2: // paths[1] validating: paths[0] committed, not punched
			victim = paths[0]
		default:
			return
		}
		if err := r.m.Remove(victim); err != nil {
			t.Error(err)
		}
	})
	var moves []policy.Move
	for _, p := range paths {
		moves = append(moves, policy.Move{Path: p, SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1})
	}
	st, err := r.m.executeMoves(moves)
	if err != nil || st.Executed != 2 || st.Skipped != 1 {
		t.Fatalf("round: %+v, %v; want two executed moves and one skipped", st, err)
	}
	if u := r.m.TierUsage(); u[r.ids.pm] != 0 || u[r.ids.ssd] != size {
		t.Fatalf("tier usage = %v, want pm 0, ssd %d", u, size)
	}
	if !bytes.Equal(readAll(t, r.m, paths[2]), payloads[2]) {
		t.Fatalf("%s corrupted", paths[2])
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths[:2] {
		for _, tier := range []int{r.ids.pm, r.ids.ssd} {
			if n := tierBytes(t, r.m, tier, p); n != 0 {
				t.Fatalf("removed %s left %d bytes on tier %d", p, n, tier)
			}
		}
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

// --- The lock fallback makes its copy durable before it logs. ---

// TestLockFallbackSyncsBeforeLogging forces the lock fallback and checks,
// on the destination tier, that a Sync separates the fallback's last
// write from the first BLT record that maps the range to the destination.
// Without it, a concurrent handle.Sync of another file could commit that
// record before the destination persisted the bytes.
func TestLockFallbackSyncsBeforeLogging(t *testing.T) {
	r, log, fss := newRecRig(t)
	ml := r.m.meta
	log.stamp = func() uint64 {
		ml.mu.Lock()
		defer ml.mu.Unlock()
		return ml.seq
	}
	const size = 256 << 10
	writeFile(t, r.m, "/storm", pipePayload(3, size)).Close()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	h, err := r.m.Open("/storm")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	r.m.SetMigrationInterleave(func(round int) {
		if _, err := h.WriteAt([]byte{byte(round)}, 0); err != nil {
			t.Errorf("racing write: %v", err)
		}
	})
	if _, err := r.m.Migrate("/storm", r.ids.pm, r.ids.ssd); err != nil {
		t.Fatal(err)
	}
	if fb := r.m.OCC().LockFallbacks; fb != 1 {
		t.Fatalf("lock fallbacks = %d, want 1", fb)
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := r.m.lookupFile("/storm")
	if err != nil {
		t.Fatal(err)
	}

	// A record's index in the journal is its append sequence number, as
	// long as every record committed (nothing compacted or dropped).
	var recs []journal.Record
	if _, err := ml.jnl.Replay(func(rec journal.Record) error {
		rec.Payload = bytes.Clone(rec.Payload) // valid only during the call
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != ml.seq {
		t.Fatalf("journal holds %d records, %d appended", len(recs), ml.seq)
	}
	rec := -1
	for i, jr := range recs {
		if jr.Type != fsrec.OpExtent {
			continue
		}
		op, err := fsrec.Parse(jr)
		if err != nil {
			t.Fatal(err)
		}
		if op.Ino == f.ino && int(op.Delta) == r.ids.ssd && op.Off == 0 {
			rec = i
			break
		}
	}
	if rec < 0 {
		t.Fatal("no record maps block 0 to the destination")
	}

	// Events stamped at most rec happened before the record was appended.
	dst := fss[r.ids.ssd].Name()
	lastWrite := -1
	events := log.snapshot()
	for i, e := range events {
		if e.tier == dst && e.kind == "write" && e.stamp <= uint64(rec) {
			lastWrite = i
		}
	}
	if lastWrite < 0 {
		t.Fatal("no destination write before the record")
	}
	for _, e := range events[lastWrite+1:] {
		if e.tier == dst && (e.kind == "sync" || e.kind == "fsync") && e.stamp <= uint64(rec) {
			return
		}
	}
	t.Fatalf("the record mapping block 0 to %s was appended before the fallback copy synced", dst)
}

// --- Rename onto a just-removed path. ---

func TestRenameOntoJustRemovedPath(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	a, b := pipePayload(4, 40<<10), pipePayload(5, 24<<10)
	writeFile(t, r.m, "/a", a).Close()
	writeFile(t, r.m, "/b", b).Close()
	if err := r.m.Remove("/b"); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Rename("/a", "/b"); err != nil {
		t.Fatalf("rename onto a just-removed path: %v", err)
	}
	if got := readTierFile(t, r.m, r.ids.pm, "/b"); !bytes.Equal(got, a) {
		t.Fatalf("tier file /b holds %d bytes, not /a's", len(got))
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, r.m, "/b"), a) {
		t.Fatal("/b does not hold /a's bytes after recovery")
	}
	if _, err := r.m.Stat("/a"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("/a after recovery: %v", err)
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

// TestRenameWaitsForInflightReclaim covers the reclaim a flusher has
// already taken but not run: the rename must wait for it.
func TestRenameWaitsForInflightReclaim(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	a := pipePayload(6, 16<<10)
	writeFile(t, r.m, "/a", a).Close()
	writeFile(t, r.m, "/b", pipePayload(7, 16<<10)).Close()
	if err := r.m.Remove("/b"); err != nil {
		t.Fatal(err)
	}
	// Play a flusher that has taken /b's reclaim: commit the remove record
	// and hold the reclaim.
	ml := r.m.meta
	ml.mu.Lock()
	taken := ml.reclaim
	ml.reclaim = nil
	for _, p := range taken {
		ml.reclaiming[p]++
	}
	ml.mu.Unlock()
	if err := r.m.metaFlush(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- r.m.Rename("/a", "/b") }()
	select {
	case err := <-done:
		t.Fatalf("rename ran ahead of the in-flight reclaim: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	r.m.reclaimPaths(taken)
	ml.reclaimed(taken)
	if err := <-done; err != nil {
		t.Fatalf("rename after the reclaim: %v", err)
	}
	if !bytes.Equal(readAll(t, r.m, "/b"), a) {
		t.Fatal("/b does not hold /a's bytes")
	}
}
