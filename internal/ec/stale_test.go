package ec

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"muxfs/internal/bufpool"
)

// poisonPool leaves stale bytes in the pooled buffers an op will draw:
// it draws several buffers of every class up to max, fills each to its
// capacity with 0xA5, and returns them.
func poisonPool(max int) {
	var held []*[]byte
	for n := bufpool.MinSize; n <= max; n *= 2 {
		for i := 0; i < 16; i++ {
			p := bufpool.Get(n)
			b := (*p)[:cap(*p)]
			for j := range b {
				b[j] = 0xA5
			}
			held = append(held, p)
		}
	}
	for _, p := range held {
		bufpool.Put(p)
	}
}

// Pooled stripe buffers come back with stale contents. Every path that
// reads less than a whole buffer, or skips a read, must zero the rest:
// otherwise the stale bytes leak into reads, into reconstruction, or into
// the parity written for them. The pool is poisoned before every op, and
// after each write the file is read whole, read degraded with each data
// node stale in turn, and scrubbed.
func TestStaleBuffersNeverLeak(t *testing.T) {
	const s = 512
	for _, c := range []struct{ k, m int }{{2, 1}, {3, 2}} {
		t.Run(fmt.Sprintf("%d+%d", c.k, c.m), func(t *testing.T) {
			ss, _ := newSet(t, c.k, c.m, s)
			f, err := ss.Create("/stale")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			span := int64(c.k) * s
			const maxBuf = 16 << 10 // past every buffer these ops draw
			var model []byte

			check := func(step string) {
				t.Helper()
				read := func(how string) {
					t.Helper()
					poisonPool(maxBuf)
					got := make([]byte, len(model)+s)
					n, err := f.ReadAt(got, 0)
					if err != nil && err != io.EOF {
						t.Fatalf("%s: %s read: %v", step, how, err)
					}
					if n != len(model) || !bytes.Equal(got[:n], model) {
						t.Fatalf("%s: %s read differs from the model (%d bytes, want %d)", step, how, n, len(model))
					}
				}
				read("healthy")
				for j := 0; j < c.k; j++ {
					ss.nodes[j].stale.Store(true)
					read(fmt.Sprintf("degraded (data node %d stale)", j))
					ss.nodes[j].stale.Store(false)
				}
				poisonPool(maxBuf)
				st, err := ss.Scrub(false)
				if err != nil {
					t.Fatalf("%s: scrub: %v", step, err)
				}
				if st.Mismatches != 0 {
					t.Fatalf("%s: scrub found %d stripes with wrong parity", step, st.Mismatches)
				}
			}
			write := func(step string, off, n int64, stale int) {
				t.Helper()
				p := make([]byte, n)
				for i := range p {
					p[i] = byte(off+int64(i))%251 + 1
				}
				if end := off + n; end > int64(len(model)) {
					model = append(model, make([]byte, end-int64(len(model)))...)
				}
				copy(model[off:], p)
				if stale >= 0 {
					ss.nodes[stale].stale.Store(true)
				}
				poisonPool(maxBuf)
				if _, err := f.WriteAt(p, off); err != nil {
					t.Fatalf("%s: write: %v", step, err)
				}
				if stale >= 0 {
					ss.nodes[stale].stale.Store(false)
				}
				check(step)
			}

			// Single-shard delta writes with nothing stored under them.
			write("delta write into an empty file", 0, 100, -1)
			write("delta write past the shard's stored length and the parity length", s+88, 50, -1)
			// A batch covering every stored byte skips the pre-read; it
			// ends mid-stripe, so the rest of that stripe must be zeros.
			write("batch extending the file mid-stripe without a pre-read", 0, span+s+100, -1)
			// A read-modify-write whose pre-read reconstructs node 0 from
			// parity that is stored for only 100 bytes of the stripe.
			write("delta write starting a new stripe", 2*span, 100, -1)
			write("degraded read-modify-write past the parity length", 2*span+300, s, 0)
			// A healthy read-modify-write of a partial stripe: the nodes
			// store less than the pre-read asks for.
			write("delta write starting a later stripe", 4*span, 100, -1)
			write("read-modify-write of a partial stripe", 4*span+300, s, -1)
			// Whole stripes of holes, then a batch past them.
			write("batch past sparse holes", 7*span+s-100, 200, -1)
		})
	}
}
