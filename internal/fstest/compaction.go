package fstest

import (
	"sort"
	"strings"
	"testing"

	"muxfs/internal/vfs"
)

// RunCompactionRecovery checks that an op which finds the journal full
// commits exactly once. Three times it brings the journal to the brink —
// short filler creates and removes until the next long-named op cannot
// fit — then runs a create, a rename and a remove that each commit
// through a compaction. After each it crashes and recovers: recovery must
// succeed and hold exactly the names the returned ops left.
//
// room reports the free bytes of the journal region the next commit
// appends to; crash simulates power loss and recovers fs in place. fs must
// commit every namespace op before the op returns.
func RunCompactionRecovery(t *testing.T, fs vfs.FileSystem, room func() int64, crash func() error) {
	t.Helper()
	live := map[string]bool{}
	long := func(tag string) string { return "/" + tag + strings.Repeat("x", 200) }
	create := func(p string) {
		mustCreate(t, fs, p).Close()
		live[p] = true
	}
	remove := func(p string) {
		if err := fs.Remove(p); err != nil {
			t.Fatalf("Remove(%s): %v", p, err)
		}
		delete(live, p)
	}
	rename := func(a, b string) {
		if err := fs.Rename(a, b); err != nil {
			t.Fatalf("Rename(%s): %v", a, err)
		}
		delete(live, a)
		live[b] = true
	}
	// cost runs op while the journal has room and returns the bytes its
	// commit took.
	cost := func(op func()) int64 {
		before := room()
		op()
		return before - room()
	}
	step := func(kind string, need int64, op func()) {
		// Filler ops are far shorter than need, so each fits while
		// need bytes are free.
		for room() >= need {
			if live["/f"] {
				remove("/f")
			} else {
				create("/f")
			}
		}
		before := room()
		op()
		if room() <= before {
			t.Fatalf("%s: %d bytes free, %d needed, yet the journal did not compact", kind, before, need)
		}
		if err := crash(); err != nil {
			t.Fatalf("recovery after a %s compacted the journal: %v", kind, err)
		}
		ents, err := fs.ReadDir("/")
		if err != nil {
			t.Fatalf("ReadDir after recovery: %v", err)
		}
		var got, want []string
		for _, e := range ents {
			got = append(got, "/"+e.Name)
		}
		for p := range live {
			want = append(want, p)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("after a %s compacted the journal, recovery holds %d names %q, want %d %q",
				kind, len(got), got, len(want), want)
		}
	}

	createCost := cost(func() { create(long("a")) })
	renameCost := cost(func() { rename(long("a"), long("b")) })
	removeCost := cost(func() { remove(long("b")) })
	step("create", createCost, func() { create(long("c")) })
	step("rename", renameCost, func() { rename(long("c"), long("d")) })
	step("remove", removeCost, func() { remove(long("d")) })
}
