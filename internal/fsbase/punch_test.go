package fsbase_test

import (
	"bytes"
	"testing"
)

// A punch that reaches EOF in mid-page frees the ragged last page rather
// than copying it: the file maps nothing afterwards, live and after a
// crash and Recover, and reads back zeros.
func TestPunchToEOFFreesRaggedPage(t *testing.T) {
	for _, kind := range []string{"novafs", "xfslite", "extlite"} {
		t.Run(kind, func(t *testing.T) {
			fs := mountNative(t, kind)
			f, err := fs.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{7}, 10_000), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.PunchHole(0, 10_000); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				st := fsState(t, fs)["/f"]
				if st.Size != 10_000 || st.Blocks != 0 || st.Data != string(make([]byte, 10_000)) {
					t.Fatalf("%s: size %d, %d bytes mapped, want 10000 and 0, reading zeros", when, st.Size, st.Blocks)
				}
				if err := fs.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			check("live")
			fs.Crash()
			if err := fs.Recover(); err != nil {
				t.Fatal(err)
			}
			check("after recovery")
		})
	}
}
