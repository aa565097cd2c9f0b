package core

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"muxfs/internal/policy"
)

// The tier barrier before a meta flush syncs a batch's destinations and
// every tier whose write epoch moved (occ.go tierBarrier). These tests pin
// both halves: the tiers it skips, and the ones it must not skip.

// A migration's meta flush commits every buffered record, the foreground
// writes' among them, so its barrier must sync a tier that only a
// foreground write touched. Here a hole write lands on the SSD (xfslite,
// whose unsynced pages a crash drops), then a PM→HDD move that never
// touches the SSD commits. After a crash right behind the move the write's
// bytes read back. A barrier limited to the batch's destinations fails
// this: the write's create and extent records commit, and its bytes and
// tier file are gone.
func TestBarrierSyncsForeignDirtyTier(t *testing.T) {
	r := newRig(t, policy.Pinned{Tier: 0}, true)
	moved := bytes.Repeat([]byte{0x5A}, 64<<10)
	writeFile(t, r.m, "/move", moved).Close()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}

	r.m.SetPolicy(policy.Pinned{Tier: r.ids.ssd})
	fg := pipePayload(3, 48<<10)
	writeFile(t, r.m, "/fg", fg).Close()
	if got := tierMap(t, r.m, "/fg"); got[r.ids.ssd] != int64(len(fg)) {
		t.Fatalf("/fg placed %v, want all %d bytes on the SSD", got, len(fg))
	}
	ssd := r.m.tierRec(r.ids.ssd)
	if !ssd.dirty() {
		t.Fatal("the SSD is not dirty after a write Mux sent it")
	}

	if _, err := r.m.Migrate("/move", r.ids.pm, r.ids.hdd); err != nil {
		t.Fatal(err)
	}
	synced := !ssd.dirty()
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r.m, "/fg"); !bytes.Equal(got, fg) {
		t.Fatal("/fg lost its bytes: the move's flush committed a record of an unsynced tier")
	}
	if got := readAll(t, r.m, "/move"); !bytes.Equal(got, moved) {
		t.Fatal("/move reads wrong after the crash")
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	if !synced {
		t.Fatal("the move's barrier left the written SSD unsynced")
	}
}

// A batch whose only written tier is its destination makes exactly one
// sync, that tier's FS.Sync, and a Mux.Sync with nothing written since the
// last makes none: clean tiers, the HDD's 500 µs persist included, are not
// paid for.
func TestBarrierSkipsCleanTiers(t *testing.T) {
	r, log, fss := newRecRig(t)
	paths, payloads := stagePM(t, r, 2, 64<<10)

	log.reset()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := log.syncsPerTier(); len(got) != 0 {
		t.Fatalf("Mux.Sync on an idle Mux synced %v, want no tier", got)
	}

	var moves []policy.Move
	for _, p := range paths {
		moves = append(moves, policy.Move{Path: p, SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1})
	}
	r.m.SetPolicy(planned(moves...))
	log.reset()
	st, err := r.m.RunPolicyOnce()
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != len(paths) {
		t.Fatalf("executed %d of %d moves", st.Executed, len(paths))
	}
	ssd := fss[r.ids.ssd].Name()
	if got := log.syncsPerTier(); len(got) != 1 || got[ssd] != 1 {
		t.Fatalf("the batch synced %v, want one Sync of %s", got, ssd)
	}

	// The round punched the PM sources after its flush: the next Mux.Sync
	// owes the PM tier alone, and the one after it nothing.
	log.reset()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, pm := log.syncsPerTier(), fss[r.ids.pm].Name(); len(got) != 1 || got[pm] != 1 {
		t.Fatalf("Mux.Sync after the round synced %v, want one Sync of %s", got, pm)
	}
	log.reset()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := log.syncsPerTier(); len(got) != 0 {
		t.Fatalf("a second Mux.Sync synced %v, want no tier", got)
	}
	for i, p := range paths {
		if got := readAll(t, r.m, p); !bytes.Equal(got, payloads[i]) {
			t.Fatalf("%s reads wrong after the round", p)
		}
	}
}

// checkEpochs fails when a tier's durable epoch ran ahead of its write
// count. durable is loaded first: both only grow, so the check cannot
// fail on a count that moved in between.
func checkEpochs(m *Mux) error {
	for _, t := range m.tierTab.Load().tiers {
		d := t.durable.Load()
		if w := t.writes.Load(); d > w {
			return fmt.Errorf("tier %d: durable %d > writes %d", t.ID, d, w)
		}
	}
	return nil
}

// Writers on two tiers, policy rounds that move files under them and
// Mux.Sync all run at once. No tier's durable epoch passes its write
// count, a final Sync leaves every tier clean, and after a crash every
// file reads back exactly what its writer last wrote: the epochs skipped
// no tier that held unsynced data. Run it under -race.
func TestBarrierEpochsUnderConcurrentWriters(t *testing.T) {
	const (
		filesPerWriter = 3
		fileSize       = 32 << 10
		ops            = 120
		rounds         = 12
	)
	place := func(ctx policy.WriteCtx, _ []policy.TierInfo) int {
		if ctx.Path[1] == 'b' {
			return 1 // the SSD
		}
		return 0 // the PM
	}
	hops := [][2]int{{0, 2}, {1, 2}, {2, 0}, {2, 1}, {0, 1}, {1, 0}}
	round := 0
	plan := func([]policy.TierInfo, []policy.FileStat, time.Duration) []policy.Move {
		var moves []policy.Move
		for i, p := range []string{"/a0", "/b0", "/cold"} {
			h := hops[(round+i)%len(hops)]
			moves = append(moves, policy.Move{Path: p, SrcTier: h[0], DstTier: h[1], Off: 0, N: -1})
		}
		round++
		return moves
	}
	r := newRig(t, policy.Func{PolicyName: "epochs", Place: place, Plan: plan}, true)
	if r.ids.pm != 0 || r.ids.ssd != 1 || r.ids.hdd != 2 {
		t.Fatalf("tier ids %+v, want pm 0, ssd 1, hdd 2", r.ids)
	}

	want := map[string][]byte{"/cold": pipePayload(99, fileSize)}
	writeFile(t, r.m, "/cold", want["/cold"]).Close()
	var writers [2][]string
	for w, prefix := range []string{"/a", "/b"} {
		for i := 0; i < filesPerWriter; i++ {
			p := fmt.Sprintf("%s%d", prefix, i)
			want[p] = pipePayload(10*w+i, fileSize)
			writeFile(t, r.m, p, want[p]).Close()
			writers[w] = append(writers[w], p)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	done := make(chan struct{})
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				p := writers[w][i%filesPerWriter]
				model := want[p] // this writer's own file: no other goroutine touches it
				h, err := r.m.Open(p)
				if err != nil {
					errs <- err
					return
				}
				off := int64((i * 7919) % (fileSize - 6000))
				if i%9 == 4 {
					n := int64(6000)
					err = h.PunchHole(off, n)
					clear(model[off : off+n])
				} else {
					b := pipePayload(100+w*ops+i, 1+(i*131)%6000)
					_, err = h.WriteAt(b, off)
					copy(model[off:], b)
				}
				h.Close()
				if err != nil {
					errs <- fmt.Errorf("%s op %d: %w", p, i, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := r.m.RunPolicyOnce(); err != nil {
				errs <- fmt.Errorf("policy round %d: %w", i, err)
				return
			}
		}
	}()
	syncs := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				syncs <- nil
				return
			default:
			}
			err := r.m.Sync()
			if err == nil {
				err = checkEpochs(r.m)
			}
			if err != nil {
				syncs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	if err := <-syncs; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The first Sync's flush runs the deferred reclaims, whose punches
	// the second covers; then nothing is left unsynced.
	for i := 0; i < 2; i++ {
		if err := r.m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tier := range r.m.Tiers() {
		if tier.dirty() {
			t.Fatalf("tier %d dirty after a quiesced Sync: writes %d, durable %d",
				tier.ID, tier.writes.Load(), tier.durable.Load())
		}
	}
	// One overwrite in place per file, on clean tiers: only the data
	// path's own bookings make the last Sync write them back.
	for w, files := range writers {
		for i, p := range files {
			b := pipePayload(200+10*w+i, 4096)
			h, err := r.m.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.WriteAt(b, 8192); err != nil {
				t.Fatal(err)
			}
			h.Close()
			copy(want[p][8192:], b)
		}
	}
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.m.ScrubOrphans(true); err != nil {
		t.Fatal(err)
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	for p, b := range want {
		if got := readAll(t, r.m, p); !bytes.Equal(got, b) {
			t.Fatalf("%s reads wrong after the crash", p)
		}
	}
	if err := checkEpochs(r.m); err != nil {
		t.Fatal(err)
	}
}

// The epochs are booked by tierFS and the handles it opens (epoch.go), so
// core must not mutate a tier, or open a handle, through the raw Tier.FS:
// such a call would leave the tier's epoch unmoved and a barrier could skip
// the tier. Only the SCM cache file, which no record references, may.
func TestTierMutationsGoThroughTierFS(t *testing.T) {
	raw := map[string]bool{"Create": true, "Open": true, "Mkdir": true, "Rename": true, "Remove": true, "SetAttr": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "cachectl.go" {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !raw[sel.Sel.Name] {
				return true
			}
			if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "FS" {
				t.Errorf("%s: %s through the raw Tier.FS skips the write epoch; use Tier.fs",
					fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
