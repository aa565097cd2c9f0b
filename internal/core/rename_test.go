package core

import (
	"bytes"
	"path"
	"testing"

	"muxfs/internal/policy"
)

// dirRenameCase is a file under a directory that is renamed one or more
// times; the file then lives at final.
type dirRenameCase struct {
	name       string
	dirs       []string
	file       string
	premigrate bool // move the file PM→SSD before the renames
	renames    [][2]string
	final      string
}

var dirRenameCases = []dirRenameCase{
	{name: "flat", dirs: []string{"/a"}, file: "/a/x",
		renames: [][2]string{{"/a", "/b"}}, final: "/b/x"},
	{name: "nested", dirs: []string{"/a", "/a/s", "/a/s/t"}, file: "/a/s/t/x",
		renames: [][2]string{{"/a", "/b"}, {"/b/s", "/b/u"}}, final: "/b/u/t/x"},
	{name: "migrated", dirs: []string{"/a"}, file: "/a/x", premigrate: true,
		renames: [][2]string{{"/a", "/b"}}, final: "/b/x"},
	{name: "back", dirs: []string{"/a"}, file: "/a/x",
		renames: [][2]string{{"/a", "/b"}, {"/b", "/a"}}, final: "/a/x"},
}

// setup builds the case on r's Mux, pinned to PM, and returns the file's
// contents and the tier it sits on after the renames.
func (c dirRenameCase) setup(t *testing.T, r *rig) ([]byte, int) {
	t.Helper()
	for _, d := range c.dirs {
		if err := r.m.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	want := bytes.Repeat([]byte("dir-rename "), 1000)[:10000]
	writeFile(t, r.m, c.file, want).Close()
	on := r.ids.pm
	if c.premigrate {
		if _, err := r.m.Migrate(c.file, r.ids.pm, r.ids.ssd); err != nil {
			t.Fatal(err)
		}
		on = r.ids.ssd
	}
	for _, rn := range c.renames {
		if err := r.m.Rename(rn[0], rn[1]); err != nil {
			t.Fatal(err)
		}
	}
	return want, on
}

// checkFile reads c.final back and runs Fsck.
func (c dirRenameCase) checkFile(t *testing.T, r *rig, want []byte, when string) {
	t.Helper()
	f, err := r.m.Open(c.final)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	defer f.Close()
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("%s: read %s: %v", when, c.final, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %s reads other bytes than written", when, c.final)
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("%s: fsck: %v", when, rep.Problems)
	}
}

// checkNoTierFiles fails if any tier still holds a regular file.
func checkNoTierFiles(t *testing.T, r *rig) {
	t.Helper()
	for _, tier := range r.m.Tiers() {
		var walk func(dir string)
		walk = func(dir string) {
			ents, err := tier.FS.ReadDir(dir)
			if err != nil {
				t.Fatalf("%s: readdir %s: %v", tier.FS.Name(), dir, err)
			}
			for _, e := range ents {
				p := path.Join(dir, e.Name)
				if e.IsDir {
					walk(p)
				} else if p != CacheFilePath {
					t.Errorf("%s still holds %s after every Mux file was removed", tier.FS.Name(), p)
				}
			}
		}
		walk("/")
	}
}

// Files under a renamed directory follow it: a migration after the rename
// moves the data from, and to, the new path, the orphan scrub leaves the
// file readable, and removing the file leaves no tier file behind.
// Before the fix the files kept their old path: the migration created the
// SSD copy at the old path, the scrub reclaimed it as an orphan, and the
// file could no longer be read.
func TestDirRenameThenMigrate(t *testing.T) {
	for _, c := range dirRenameCases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, policy.Pinned{}, false)
			want, on := c.setup(t, r)
			to := r.ids.ssd
			if on == r.ids.ssd {
				to = r.ids.hdd
			}
			if _, err := r.m.Migrate(c.final, on, to); err != nil {
				t.Fatal(err)
			}
			if _, err := r.m.ScrubOrphans(true); err != nil {
				t.Fatal(err)
			}
			c.checkFile(t, r, want, "after migrate and scrub")
			if err := r.m.Remove(c.final); err != nil {
				t.Fatal(err)
			}
			checkNoTierFiles(t, r)
		})
	}
}

// Files under a renamed directory survive a crash: replay points them at
// their new path, where the tier data sits. Before the fix replay kept the
// old path, and the file read back zeros.
func TestDirRenameSurvivesCrash(t *testing.T) {
	for _, c := range dirRenameCases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, policy.Pinned{}, true)
			want, _ := c.setup(t, r)
			if err := r.m.Sync(); err != nil {
				t.Fatal(err)
			}
			r.m.Crash()
			if err := r.m.Recover(); err != nil {
				t.Fatal(err)
			}
			c.checkFile(t, r, want, "after a crash")
			if _, err := r.m.ScrubOrphans(true); err != nil {
				t.Fatal(err)
			}
			c.checkFile(t, r, want, "after the orphan scrub")
			if err := r.m.Remove(c.final); err != nil {
				t.Fatal(err)
			}
			if err := r.m.Sync(); err != nil {
				t.Fatal(err)
			}
			checkNoTierFiles(t, r)
		})
	}
}

// A rename that lands between a move's commit and its source punch closes
// the file's downward handles (repath), and the tier file moves to the new
// path. The punch resolves the source handle again, so the round succeeds
// and the source range is punched at the new path.
func TestRenameBetweenMigrationCommitAndPunch(t *testing.T) {
	r := newRig(t, policy.Pinned{}, true)
	want := pipePayload(7, 96<<10)
	writeFile(t, r.m, "/old", want).Close()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	r.m.SetPolicy(planned(policy.Move{Path: "/old", SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1}))
	renamed := false
	r.m.hookBeforeReclaim = func() {
		renamed = true
		if err := r.m.Rename("/old", "/new"); err != nil {
			t.Error(err)
		}
	}
	st, err := r.m.RunPolicyOnce()
	r.m.hookBeforeReclaim = nil
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if !renamed || st.Executed != 1 || st.BytesMoved != int64(len(want)) {
		t.Fatalf("renamed %v, round %+v: want the rename and one %d-byte move", renamed, st, len(want))
	}
	pm := r.m.tierRec(r.ids.pm).FS
	fi, err := pm.Stat("/new")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Blocks != 0 {
		t.Fatalf("PM /new still maps %d bytes: the source was not punched", fi.Blocks)
	}
	if _, err := pm.Stat("/old"); err == nil {
		t.Fatal("PM still holds /old after the rename")
	}
	if got := readAll(t, r.m, "/new"); !bytes.Equal(got, want) {
		t.Fatal("/new reads wrong after the move")
	}
	if n, err := r.m.ScrubOrphans(false); err != nil || n != 0 {
		t.Fatalf("scrub dry-run: %d orphaned bytes, err %v", n, err)
	}
}

// A move's source punch can also run inside a rename's window: repath has
// pointed the file at the new path and closed its handles, but the
// rename's Sync and tier renames have not run. Here the round's punch runs
// from inside that Sync. It must not put a tier file at the new path,
// which would make the tier rename fail after the rename record
// committed: the rename and the round both succeed, the unpunched source
// bytes follow the rename, and the orphan scrub reclaims them.
func TestMigrationPunchInsideRenameSync(t *testing.T) {
	r, _, fss := newRecRig(t)
	want := pipePayload(9, 96<<10)
	writeFile(t, r.m, "/old", want).Close()
	if err := r.m.Sync(); err != nil {
		t.Fatal(err)
	}
	r.m.SetPolicy(planned(policy.Move{Path: "/old", SrcTier: r.ids.pm, DstTier: r.ids.ssd, Off: 0, N: -1}))
	committed, proceed := make(chan struct{}), make(chan struct{})
	r.m.hookBeforeReclaim = func() {
		close(committed)
		<-proceed
	}
	type result struct {
		st  MigrationStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := r.m.RunPolicyOnce()
		done <- result{st, err}
	}()
	<-committed

	// Dirty the PM tier so the rename's Sync reaches it, and let the
	// round punch from inside that Sync.
	writeFile(t, r.m, "/other", pipePayload(10, 4096)).Close()
	var round result
	punched := false
	fss[r.ids.pm].onSync = func() {
		if !punched {
			punched = true
			close(proceed)
			round = <-done
		}
	}
	err := r.m.Rename("/old", "/new")
	fss[r.ids.pm].onSync = nil
	r.m.hookBeforeReclaim = nil
	if err != nil {
		t.Fatalf("rename failed: %v", err)
	}
	if !punched {
		t.Fatal("the rename's Sync never reached the PM tier")
	}
	if round.err != nil || round.st.Executed != 1 || round.st.BytesMoved != int64(len(want)) {
		t.Fatalf("round %+v, err %v: want one %d-byte move", round.st, round.err, len(want))
	}
	if got := readAll(t, r.m, "/new"); !bytes.Equal(got, want) {
		t.Fatal("/new reads wrong after the rename")
	}
	pm := r.m.tierRec(r.ids.pm).FS
	if _, err := pm.Stat("/old"); err == nil {
		t.Fatal("PM still holds /old after the rename")
	}
	if n, err := r.m.ScrubOrphans(true); err != nil || n == 0 {
		t.Fatalf("scrub: %d orphaned bytes, err %v: want the unpunched source", n, err)
	}
	if fi, err := pm.Stat("/new"); err != nil || fi.Blocks != 0 {
		t.Fatalf("PM /new after the scrub: %+v, err %v: want no blocks", fi, err)
	}
	if rep := r.m.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	r.m.Crash()
	if err := r.m.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r.m, "/new"); !bytes.Equal(got, want) {
		t.Fatal("/new reads wrong after the crash")
	}
}
