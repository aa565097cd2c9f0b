package ec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/fstest"
	"muxfs/internal/simclock"
	"muxfs/internal/telemetry"
	"muxfs/internal/vfs"
)

func newNodeFS(t *testing.T, name string) vfs.FileSystem {
	t.Helper()
	dev := device.New(device.SSDProfile(name), simclock.New())
	fs, err := xfslite.New(name, dev)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// newSet builds a k+m stripe set over fresh xfslite nodes with a small
// shard so modest files span many stripes.
func newSet(t *testing.T, k, m int, shard int64) (*StripeSet, []vfs.FileSystem) {
	t.Helper()
	nodes := make([]vfs.FileSystem, k+m)
	for i := range nodes {
		nodes[i] = newNodeFS(t, fmt.Sprintf("node%d", i))
	}
	ss, err := New("t", nodes, Options{Parity: m, ShardSize: shard})
	if err != nil {
		t.Fatal(err)
	}
	return ss, nodes
}

// The composite tier must satisfy the full vfs contract — the same
// conformance battery every leaf file system passes, including sparse
// accounting, punch-hole semantics, and the randomized model check.
func TestStripeSetConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		ss, _ := newSet(t, 3, 1, 4096)
		return ss
	})
}

func TestStripeSetConcurrency(t *testing.T) {
	fstest.RunConcurrency(t, func(t *testing.T) vfs.FileSystem {
		ss, _ := newSet(t, 3, 1, 4096)
		return ss
	})
}

// Geometry sweep: random I/O against a plain map-of-bytes model across
// several k/m combinations, exercising stripe math off the conformance
// suite's beaten path.
func TestStripeSetRandomAgainstModel(t *testing.T) {
	for _, tc := range []struct {
		k, m  int
		shard int64
	}{{1, 0, 512}, {2, 1, 512}, {4, 1, 1024}, {3, 2, 512}} {
		t.Run(fmt.Sprintf("%d+%d", tc.k, tc.m), func(t *testing.T) {
			ss, _ := newSet(t, tc.k, tc.m, tc.shard)
			f, err := ss.Create("/rand")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rng := rand.New(rand.NewSource(42))
			const space = 96 << 10
			model := make([]byte, 0, space)
			for op := 0; op < 300; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // write
					off := int64(rng.Intn(space))
					n := rng.Intn(8192) + 1
					buf := make([]byte, n)
					rng.Read(buf)
					if _, err := f.WriteAt(buf, off); err != nil {
						t.Fatalf("op %d write: %v", op, err)
					}
					if need := int(off) + n; need > len(model) {
						model = append(model, make([]byte, need-len(model))...)
					}
					copy(model[off:], buf)
				case 5, 6, 7: // read
					if len(model) == 0 {
						continue
					}
					off := int64(rng.Intn(len(model)))
					n := rng.Intn(8192) + 1
					buf := make([]byte, n)
					rn, err := f.ReadAt(buf, off)
					want := len(model) - int(off)
					if want > n {
						want = n
					}
					if err != nil && err != io.EOF {
						t.Fatalf("op %d read: %v", op, err)
					}
					if rn != want || !bytes.Equal(buf[:rn], model[off:int(off)+want]) {
						t.Fatalf("op %d read mismatch at %d (n=%d want %d)", op, off, rn, want)
					}
				case 8: // truncate
					size := int64(rng.Intn(space))
					if err := f.Truncate(size); err != nil {
						t.Fatalf("op %d truncate: %v", op, err)
					}
					if int(size) <= len(model) {
						model = model[:size]
					} else {
						model = append(model, make([]byte, int(size)-len(model))...)
					}
				case 9: // punch
					if len(model) == 0 {
						continue
					}
					off := int64(rng.Intn(len(model)))
					n := int64(rng.Intn(16384) + 1)
					if err := f.PunchHole(off, n); err != nil {
						t.Fatalf("op %d punch: %v", op, err)
					}
					hi := off + n
					if hi > int64(len(model)) {
						hi = int64(len(model))
					}
					for x := off; x < hi; x++ {
						model[x] = 0
					}
				}
				// Size must track the model exactly.
				info, err := ss.Stat("/rand")
				if err != nil {
					t.Fatalf("op %d stat: %v", op, err)
				}
				if info.Size != int64(len(model)) {
					t.Fatalf("op %d: size %d, model %d", op, info.Size, len(model))
				}
			}
		})
	}
}

// writeFile writes pseudorandom bytes and returns them.
func writeFile(t *testing.T, ss *StripeSet, path string, size int, seed int64) []byte {
	t.Helper()
	f, err := ss.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

func readFull(t *testing.T, ss *StripeSet, path string, size int) []byte {
	t.Helper()
	f, err := ss.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

// Degraded reads: with any single node quarantined (data or parity), all
// bytes must still come back correct, served via parity reconstruction.
func TestDegradedReadEachNode(t *testing.T) {
	const k, m = 3, 1
	ss, _ := newSet(t, k, m, 1024)
	data := writeFile(t, ss, "/f", 50<<10, 1)
	for i := 0; i < k+m; i++ {
		if err := ss.Quarantine(i); err != nil {
			t.Fatal(err)
		}
		got := readFull(t, ss, "/f", len(data))
		if !bytes.Equal(got, data) {
			t.Fatalf("degraded read with node %d down: corrupt bytes", i)
		}
		if err := ss.Reinstate(i); err != nil {
			t.Fatal(err)
		}
	}
	if ss.Status().DegradedReads == 0 {
		t.Fatal("no degraded reads counted despite quarantined nodes")
	}
}

// Two parity nodes: any two nodes may be down simultaneously.
func TestDegradedReadDoubleFault(t *testing.T) {
	const k, m = 4, 2
	ss, _ := newSet(t, k, m, 1024)
	data := writeFile(t, ss, "/f", 64<<10, 2)
	for a := 0; a < k+m; a++ {
		for b := a + 1; b < k+m; b++ {
			ss.Quarantine(a)
			ss.Quarantine(b)
			got := readFull(t, ss, "/f", len(data))
			if !bytes.Equal(got, data) {
				t.Fatalf("read with nodes %d,%d down: corrupt bytes", a, b)
			}
			ss.Reinstate(a)
			ss.Reinstate(b)
		}
	}
}

// Writes during an outage mark the node stale; a rebuild restores it and
// a scrub certifies parity is consistent again.
func TestStaleWriteRebuildScrub(t *testing.T) {
	const k, m = 3, 1
	ss, _ := newSet(t, k, m, 1024)
	writeFile(t, ss, "/f", 40<<10, 3)

	// Node 1 misses a write burst.
	ss.Quarantine(1)
	data2 := writeFile(t, ss, "/g", 30<<10, 4)
	f, err := ss.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	overlay := bytes.Repeat([]byte{0xEE}, 8<<10)
	if _, err := f.WriteAt(overlay, 1000); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ss.Reinstate(1)
	if !ss.nodes[1].stale.Load() {
		t.Fatal("node 1 not marked stale after missing writes")
	}

	// Reads must not trust the stale node.
	got := readFull(t, ss, "/g", len(data2))
	if !bytes.Equal(got, data2) {
		t.Fatal("read served stale data")
	}

	st, err := ss.Rebuild(1)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if st.Files != 2 || st.Bytes == 0 {
		t.Fatalf("rebuild stats %+v", st)
	}
	if ss.nodes[1].stale.Load() {
		t.Fatal("node still stale after rebuild")
	}
	sc, err := ss.Scrub(false)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if sc.Mismatches != 0 {
		t.Fatalf("scrub found %d mismatches after rebuild", sc.Mismatches)
	}
	// And the rebuilt node now serves reads byte-correct on its own
	// authority: quarantine everyone else's parity twin to force use.
	got = readFull(t, ss, "/g", len(data2))
	if !bytes.Equal(got, data2) {
		t.Fatal("read wrong after rebuild")
	}
}

// ReplaceNode swaps in an empty file system; Rebuild must repopulate it
// including directory structure and attributes, preserving sparsity.
func TestReplaceNodeRebuild(t *testing.T) {
	const k, m = 3, 1
	ss, _ := newSet(t, k, m, 1024)
	if err := ss.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	data := writeFile(t, ss, "/d/f", 48<<10, 5)

	// Sparse file: bytes only at a far offset.
	sf, err := ss.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	tail := []byte("tail")
	if _, err := sf.WriteAt(tail, 1<<20); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	for victim := 0; victim < k+m; victim++ {
		repl := newNodeFS(t, fmt.Sprintf("repl%d", victim))
		if err := ss.ReplaceNode(victim, repl); err != nil {
			t.Fatal(err)
		}
		st, err := ss.Rebuild(victim)
		if err != nil {
			t.Fatalf("rebuild node %d: %v", victim, err)
		}
		if st.Files != 2 || st.Dirs != 1 {
			t.Fatalf("rebuild stats %+v", st)
		}
		sc, err := ss.Scrub(false)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Mismatches != 0 {
			t.Fatalf("scrub after replacing node %d: %d mismatches", victim, sc.Mismatches)
		}
		if got := readFull(t, ss, "/d/f", len(data)); !bytes.Equal(got, data) {
			t.Fatalf("data wrong after rebuilding node %d", victim)
		}
		buf := make([]byte, len(tail))
		f2, err := ss.Open("/sparse")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f2.ReadAt(buf, 1<<20); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		f2.Close()
		if !bytes.Equal(buf, tail) {
			t.Fatalf("sparse tail wrong after rebuilding node %d", victim)
		}
	}

	// Sparsity preserved: the sparse file's blocks must stay far below
	// its size.
	info, err := ss.Stat("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks >= info.Size {
		t.Fatalf("sparse file densified by rebuild: blocks=%d size=%d", info.Blocks, info.Size)
	}
}

// The single-shard delta fast path and the general path must agree.
func TestDeltaParityMatchesGeneral(t *testing.T) {
	for _, m := range []int{1, 2} {
		ss, _ := newSet(t, 4, m, 2048)
		data := writeFile(t, ss, "/f", 64<<10, 7)
		f, err := ss.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 50; i++ {
			off := int64(rng.Intn(len(data)))
			n := rng.Intn(1024) + 1 // small: frequently single-shard
			buf := make([]byte, n)
			rng.Read(buf)
			if _, err := f.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
			copy(data[off:min(int(off)+n, len(data))], buf)
			if need := int(off) + n; need > len(data) {
				data = append(data, buf[len(buf)-(need-len(data)):]...)
			}
		}
		f.Close()
		// Parity must be perfectly consistent after the mix of paths.
		sc, err := ss.Scrub(false)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Mismatches != 0 {
			t.Fatalf("m=%d: %d parity mismatches after delta writes", m, sc.Mismatches)
		}
		if got := readFull(t, ss, "/f", len(data)); !bytes.Equal(got, data) {
			t.Fatalf("m=%d: data corrupt after delta writes", m)
		}
		// Degraded read cross-checks parity reflects the deltas.
		ss.Quarantine(0)
		if got := readFull(t, ss, "/f", len(data)); !bytes.Equal(got, data) {
			t.Fatalf("m=%d: degraded read wrong after delta writes", m)
		}
		ss.Reinstate(0)
	}
}

// Concurrent striped I/O across many files under -race.
func TestStripeSetParallelFiles(t *testing.T) {
	ss, _ := newSet(t, 4, 1, 1024)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/w%d", w)
			f, err := ss.Create(path)
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			pat := bytes.Repeat([]byte{byte(w + 1)}, 3000)
			for i := 0; i < 20; i++ {
				off := int64(i) * 2999
				if _, err := f.WriteAt(pat, off); err != nil {
					errs <- fmt.Errorf("w%d write: %w", w, err)
					return
				}
				buf := make([]byte, len(pat))
				if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
					errs <- fmt.Errorf("w%d read: %w", w, err)
					return
				}
				if !bytes.Equal(buf, pat) {
					errs <- fmt.Errorf("w%d: cross-file corruption", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Size bookkeeping survives a cold restart of the stripe layer (fresh
// StripeSet over the same nodes — cache empty, sizes re-derived from
// node file sizes alone), including with a node missing.
func TestSizeRecoveryColdStart(t *testing.T) {
	const k, m = 3, 1
	nodes := make([]vfs.FileSystem, k+m)
	for i := range nodes {
		nodes[i] = newNodeFS(t, fmt.Sprintf("cold%d", i))
	}
	ss, err := New("t", nodes, Options{Parity: m, ShardSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Sizes chosen to land on every alignment class: empty, sub-shard,
	// exactly one shard, mid-stripe, full stripe, many stripes + tail.
	sizes := []int{0, 1, 517, 1024, 1500, 3072, 50000}
	for i, size := range sizes {
		writeFile(t, ss, fmt.Sprintf("/f%d", i), size, int64(i))
	}
	for down := -1; down < k+m; down++ {
		ss2, err := New("t", nodes, Options{Parity: m, ShardSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if down >= 0 {
			ss2.Quarantine(down)
		}
		for i, size := range sizes {
			info, err := ss2.Stat(fmt.Sprintf("/f%d", i))
			if err != nil {
				t.Fatalf("down=%d stat f%d: %v", down, i, err)
			}
			if info.Size != int64(size) {
				t.Fatalf("down=%d: f%d size %d, want %d", down, i, info.Size, size)
			}
		}
	}
}

// More nodes down than parity must fail loudly, not corrupt.
func TestTooManyFailures(t *testing.T) {
	ss, _ := newSet(t, 3, 1, 1024)
	writeFile(t, ss, "/f", 10<<10, 9)
	ss.Quarantine(0)
	ss.Quarantine(1)
	f, err := ss.Open("/f")
	if err == nil {
		_, err = f.ReadAt(make([]byte, 100), 0)
		f.Close()
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("read with 2 nodes down (m=1) returned %v, want ErrDegraded", err)
	}
}

// Telemetry wiring: per-node and set-wide counters must move.
func TestStripeTelemetry(t *testing.T) {
	nodes := make([]vfs.FileSystem, 3)
	for i := range nodes {
		nodes[i] = newNodeFS(t, fmt.Sprintf("tel%d", i))
	}
	reg := telemetry.NewRegistry(64)
	reg.SetEnabled(true)
	ss, err := New("telset", nodes, Options{Parity: 1, ShardSize: 1024, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	data := writeFile(t, ss, "/f", 8<<10, 11)
	ss.Quarantine(0)
	if got := readFull(t, ss, "/f", len(data)); !bytes.Equal(got, data) {
		t.Fatal("degraded read wrong")
	}
	st := ss.Status()
	if st.DegradedReads == 0 || st.ReconstructedBytes == 0 {
		t.Fatalf("degraded counters did not move: %+v", st)
	}
	var foundBytes, foundDegraded bool
	for _, n := range st.Nodes {
		if n.BytesWritten > 0 {
			foundBytes = true
		}
	}
	_ = foundDegraded
	if !foundBytes {
		t.Fatal("no per-node write bytes recorded")
	}
}

// TestStripeCountsOncePerEvent: a stripe event is counted once, in the
// counter Status reads, and /metrics exports that same counter — so
// neither a disabled registry nor a registry Reset makes the two
// disagree.
func TestStripeCountsOncePerEvent(t *testing.T) {
	nodes := make([]vfs.FileSystem, 3)
	for i := range nodes {
		nodes[i] = newNodeFS(t, fmt.Sprintf("once%d", i))
	}
	reg := telemetry.NewRegistry(0)
	ss, err := New("onceset", nodes, Options{Parity: 1, ShardSize: 1024, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(ss.Collect)
	data := writeFile(t, ss, "/f", 8<<10, 5)
	ss.Quarantine(0)
	reg.SetEnabled(false)
	if got := readFull(t, ss, "/f", len(data)); !bytes.Equal(got, data) {
		t.Fatal("degraded read wrong")
	}
	reg.SetEnabled(true)
	reg.Reset()
	if got := readFull(t, ss, "/f", len(data)); !bytes.Equal(got, data) {
		t.Fatal("degraded read wrong")
	}

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	st := ss.Status()
	if st.DegradedReads != 2 {
		t.Fatalf("Status().DegradedReads = %d, want 2", st.DegradedReads)
	}
	for _, want := range []string{
		fmt.Sprintf(`mux_stripe_degraded_reads_total{set="onceset"} %d`, st.DegradedReads),
		fmt.Sprintf(`mux_stripe_reconstructed_bytes_total{set="onceset"} %d`, st.ReconstructedBytes),
		fmt.Sprintf(`mux_stripe_node_bytes_total{node="1",op="read",role="data",set="onceset"} %d`, st.Nodes[1].BytesRead),
		fmt.Sprintf(`mux_stripe_node_bytes_total{node="2",op="write",role="parity",set="onceset"} %d`, st.Nodes[2].BytesWritten),
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, buf.String())
		}
	}
}

// errNodeDown is the transport failure faultyFS injects.
var errNodeDown = errors.New("node down")

// faultyFS wraps a node file system: while failing is set, every call
// through it (or a file it opened) fails with a node fault. calls counts
// every call that reached the node.
type faultyFS struct {
	vfs.FileSystem
	failing atomic.Bool
	calls   atomic.Int64
}

func (f *faultyFS) hit() error {
	f.calls.Add(1)
	if f.failing.Load() {
		return errNodeDown
	}
	return nil
}

func (f *faultyFS) Open(path string) (vfs.File, error) {
	if err := f.hit(); err != nil {
		return nil, err
	}
	h, err := f.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: h, fs: f}, nil
}

func (f *faultyFS) Stat(path string) (vfs.FileInfo, error) {
	if err := f.hit(); err != nil {
		return vfs.FileInfo{}, err
	}
	return f.FileSystem.Stat(path)
}

type faultyFile struct {
	vfs.File
	fs *faultyFS
}

func (f *faultyFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.hit(); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultyFile) Stat() (vfs.FileInfo, error) {
	if err := f.fs.hit(); err != nil {
		return vfs.FileInfo{}, err
	}
	return f.File.Stat()
}

// fakeClock drives the node breakers' cooldown by hand.
type fakeClock struct{ t atomic.Int64 }

func (c *fakeClock) now() time.Duration      { return time.Duration(c.t.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

// The automatic node breaker: failThreshold consecutive faults quarantine
// a node; reads then reconstruct from parity without touching it; after
// the cooldown one probe is admitted — a failed probe reopens the breaker
// (and counts as a quarantine), a successful one closes it.
func TestNodeBreakerQuarantinesAndProbes(t *testing.T) {
	flaky := &faultyFS{FileSystem: newNodeFS(t, "node0")}
	ss, err := New("t", []vfs.FileSystem{flaky, newNodeFS(t, "node1"), newNodeFS(t, "node2")},
		Options{Parity: 1, ShardSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var clk fakeClock
	for _, n := range ss.nodes {
		n.br.Now = clk.now
	}
	data := writeFile(t, ss, "/f", 64<<10, 7)
	f, err := ss.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(data))
	read := func(step string) {
		t.Helper()
		clear(buf)
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatalf("%s: read: %v", step, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("%s: read returned corrupt bytes", step)
		}
	}
	node0 := func() NodeStatus { return ss.Status().Nodes[0] }
	read("warm-up") // caches the node handles

	flaky.failing.Store(true)
	for i := 1; i <= failThreshold; i++ {
		read(fmt.Sprintf("fault %d", i))
		st := node0()
		if st.Faults != int64(i) {
			t.Fatalf("after faulting read %d: %d node faults, want %d", i, st.Faults, i)
		}
		if want := i == failThreshold; (st.State == "quarantined") != want {
			t.Fatalf("after %d faults: state %s", i, st.State)
		}
	}
	if st := node0(); st.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", st.Quarantines)
	}

	// Quarantined: reads reconstruct and never reach the node.
	calls, degraded := flaky.calls.Load(), ss.Status().DegradedReads
	read("quarantined")
	read("quarantined again")
	if got := flaky.calls.Load(); got != calls {
		t.Fatalf("quarantined node took %d calls", got-calls)
	}
	if ss.Status().DegradedReads <= degraded {
		t.Fatal("quarantined reads were not served by reconstruction")
	}

	// Cooldown over, node still down: the probe fails and reopens.
	clk.advance(DefaultCooldown)
	read("failed probe")
	if got := flaky.calls.Load(); got == calls {
		t.Fatal("no probe reached the node after the cooldown")
	}
	if st := node0(); st.State != "quarantined" || st.Quarantines != 2 {
		t.Fatalf("after a failed probe: state %s, quarantines %d; want quarantined, 2", st.State, st.Quarantines)
	}
	calls = flaky.calls.Load()
	read("reopened")
	if got := flaky.calls.Load(); got != calls {
		t.Fatal("failed probe did not restart the cooldown")
	}

	// Node back: the next probe closes the breaker.
	flaky.failing.Store(false)
	clk.advance(DefaultCooldown)
	read("successful probe")
	if st := node0(); st.State != "healthy" || st.Quarantines != 2 {
		t.Fatalf("after a successful probe: state %s, quarantines %d; want healthy, 2", st.State, st.Quarantines)
	}
}
