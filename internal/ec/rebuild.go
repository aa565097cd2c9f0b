package ec

import (
	"errors"
	"fmt"
	"sort"

	"muxfs/internal/guard"
	"muxfs/internal/telemetry"
	"muxfs/internal/vfs"
)

// Quarantine manually fences node i: it stops receiving operations until
// Reinstate. Writes issued while fenced mark it stale, so a Rebuild is
// usually needed afterwards.
func (ss *StripeSet) Quarantine(i int) error {
	if i < 0 || i >= len(ss.nodes) {
		return ErrNodeIndex
	}
	ss.nodes[i].br.Trip()
	return nil
}

// Reinstate lifts a manual quarantine and resets the breaker. It does
// not clear staleness — use Rebuild to restore missed writes first.
func (ss *StripeSet) Reinstate(i int) error {
	if i < 0 || i >= len(ss.nodes) {
		return ErrNodeIndex
	}
	ss.nodes[i].br.Reset()
	return nil
}

// ReplaceNode swaps in a fresh file system for node i (a replacement
// disk/server). The node is marked stale until Rebuild repopulates it;
// cached file handles reopen lazily via the generation bump.
func (ss *StripeSet) ReplaceNode(i int, fs vfs.FileSystem) error {
	if i < 0 || i >= len(ss.nodes) {
		return ErrNodeIndex
	}
	n := ss.nodes[i]
	n.fsMu.Lock()
	n.fs = fs
	n.fsMu.Unlock()
	n.gen.Add(1)
	n.stale.Store(true)
	n.br.Reset()
	return nil
}

// RebuildStats summarizes one node rebuild.
type RebuildStats struct {
	Files int
	Dirs  int
	Bytes int64 // bytes written to the rebuilt node
}

// Rebuild repopulates node i from the surviving nodes: directories are
// re-created, every file's shards are reconstructed (data node) or
// re-encoded (parity node) batch-wise, and sparsity is preserved by
// skipping all-zero batches. On success the node is fresh again: stale
// cleared, breaker reset.
func (ss *StripeSet) Rebuild(i int) (RebuildStats, error) {
	var st RebuildStats
	if i < 0 || i >= len(ss.nodes) {
		return st, ErrNodeIndex
	}
	// The node being rebuilt must not serve reads or act as authority
	// while its content is in flux.
	ss.nodes[i].stale.Store(true)

	dirs, files, err := ss.walk("/")
	if err != nil {
		return st, err
	}
	for _, d := range dirs {
		err := ss.nodeCall(i, func(fs vfs.FileSystem) error {
			err := fs.Mkdir(d)
			if errors.Is(err, vfs.ErrExist) {
				return nil
			}
			return err
		})
		if err != nil {
			return st, fmt.Errorf("rebuild mkdir %s: %w", d, err)
		}
		st.Dirs++
	}
	for _, p := range files {
		n, err := ss.rebuildFile(i, p)
		if err != nil {
			return st, fmt.Errorf("rebuild %s: %w", p, err)
		}
		st.Files++
		st.Bytes += n
	}
	ss.nodes[i].stale.Store(false)
	ss.nodes[i].br.Reset()
	ss.rebuilds.Add(1)
	ss.rebuildBytes.Add(st.Bytes)
	return st, nil
}

// walk lists the namespace (from the surviving authority) depth-first:
// parent directories always precede their children.
func (ss *StripeSet) walk(root string) (dirs, files []string, err error) {
	ents, err := ss.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(ents, func(a, b int) bool { return ents[a].Name < ents[b].Name })
	for _, e := range ents {
		p := root + e.Name
		if root != "/" {
			p = root + "/" + e.Name
		}
		if e.IsDir {
			dirs = append(dirs, p)
			subDirs, subFiles, err := ss.walk(p)
			if err != nil {
				return nil, nil, err
			}
			dirs = append(dirs, subDirs...)
			files = append(files, subFiles...)
		} else {
			files = append(files, p)
		}
	}
	return dirs, files, nil
}

// rebuildFile reconstructs one file's shards onto node i and returns the
// bytes written.
func (ss *StripeSet) rebuildFile(i int, path string) (int64, error) {
	fm := ss.getMeta(path)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	fm.loaded = false // node i is untrusted; re-derive from survivors
	if err := ss.ensureLoadedLocked(path, fm); err != nil {
		return 0, err
	}
	l := fm.size
	g := ss.geom

	// Reset the target file to empty so skipped zero batches stay holes.
	err := ss.nodeCall(i, func(fs vfs.FileSystem) error {
		h, err := fs.Open(path)
		if errors.Is(err, vfs.ErrNotExist) {
			h, err = fs.Create(path)
		}
		if err != nil {
			return err
		}
		defer h.Close()
		return h.Truncate(0)
	})
	if err != nil {
		return 0, err
	}

	targetLen := g.nodeLen(i, l)
	if i >= g.k {
		targetLen = g.parityLen(l)
	}
	scratch := ss.newFile(path)
	defer scratch.Close()

	var written int64
	span := g.span()
	batchStripes := max64(1, batchBytes/span)
	lastStripe := int64(-1)
	if l > 0 {
		lastStripe = (l - 1) / span
	}
	for bs0 := int64(0); bs0 <= lastStripe; bs0 += batchStripes {
		bs1 := min64(bs0+batchStripes-1, lastStripe)
		n, err := ss.rebuildBatch(scratch, i, bs0, bs1, l, targetLen)
		written += n
		if err != nil {
			return written, err
		}
	}

	// Exact final length: data nodes get shard coverage, parity nodes the
	// logical size (payload + tail hole) so size recovery holds.
	finalLen := g.nodeLen(i, l)
	if i >= g.k {
		finalLen = l
	}
	err = ss.nodeCall(i, func(fs vfs.FileSystem) error {
		return fs.Truncate(path, finalLen)
	})
	if err != nil {
		return written, err
	}

	// Copy logical attributes from the survivors.
	info, err := ss.statSurvivors(path, i)
	if err == nil {
		mode := info.Mode
		mt := info.ModTime
		_ = ss.nodeCall(i, func(fs vfs.FileSystem) error {
			return fs.SetAttr(path, vfs.SetAttr{Mode: &mode, ModTime: &mt})
		})
	}
	return written, nil
}

// rebuildBatch rewrites node i's part of stripes [bs0, bs1] from the
// survivors and returns the bytes written; all-zero chunks stay holes.
func (ss *StripeSet) rebuildBatch(scratch *stripeFile, i int, bs0, bs1, l, targetLen int64) (int64, error) {
	g := ss.geom
	nStripes := bs1 - bs0 + 1
	cb := getCallBufs()
	defer cb.release()
	dataBufs := cb.set(g.k, nStripes*g.s)
	if err := scratch.readShards(cb, bs0, bs1, l, dataBufs, i); err != nil {
		return 0, err
	}
	var out []byte
	if i < g.k {
		out = dataBufs[i]
	} else {
		// Parity node: re-encode from the data shards; the other parity
		// rows land in spare buffers.
		out = cb.buf(nStripes * g.s)
		spare := cb.set(g.m, g.s)
		shards, pshards := cb.rows(g.k), cb.rows(g.m)
		for r := int64(0); r < nStripes; r++ {
			for j := 0; j < g.k; j++ {
				shards[j] = dataBufs[j][r*g.s : (r+1)*g.s]
			}
			copy(pshards, spare)
			pshards[i-g.k] = out[r*g.s : (r+1)*g.s]
			if err := ss.code.Encode(shards, pshards); err != nil {
				return 0, err
			}
		}
	}
	lo := bs0 * g.s
	hi := min64(lo+nStripes*g.s, targetLen)
	if hi <= lo {
		return 0, nil
	}
	chunk := out[:hi-lo]
	if isZero(chunk) {
		return 0, nil // leave the hole
	}
	if err := scratch.nodeWrite(i, chunk, lo); err != nil {
		return 0, err
	}
	return hi - lo, nil
}

// statSurvivors stats the path skipping node i.
func (ss *StripeSet) statSurvivors(path string, skip int) (vfs.FileInfo, error) {
	var out vfs.FileInfo
	var got bool
	for j := range ss.nodes {
		if j == skip || ss.nodes[j].stale.Load() {
			continue
		}
		err := ss.nodeCall(j, func(fs vfs.FileSystem) error {
			info, err := fs.Stat(path)
			if err == nil {
				out, got = info, true
			}
			return err
		})
		if err == nil && got {
			return out, nil
		}
	}
	return out, ErrDegraded
}

func isZero(b []byte) bool {
	for len(b) >= 8 {
		if b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] != 0 {
			return false
		}
		b = b[8:]
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// ScrubStats summarizes a parity verification pass.
type ScrubStats struct {
	Files      int
	Stripes    int64
	Mismatches int64
	Repaired   int64
}

// Scrub re-reads every file's data shards, recomputes parity, and
// compares it with the stored parity. With repair set, mismatched parity
// ranges are rewritten. A clean scrub (Mismatches == 0) certifies the
// set is fully redundant again after a rebuild.
func (ss *StripeSet) Scrub(repair bool) (ScrubStats, error) {
	var st ScrubStats
	if ss.geom.m == 0 {
		return st, nil
	}
	_, files, err := ss.walk("/")
	if err != nil {
		return st, err
	}
	for _, p := range files {
		if err := ss.scrubFile(p, repair, &st); err != nil {
			return st, fmt.Errorf("scrub %s: %w", p, err)
		}
		st.Files++
	}
	return st, nil
}

func (ss *StripeSet) scrubFile(path string, repair bool, st *ScrubStats) error {
	fm := ss.getMeta(path)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if err := ss.ensureLoadedLocked(path, fm); err != nil {
		return err
	}
	l := fm.size
	if l == 0 {
		return nil
	}
	g := ss.geom
	scratch := ss.newFile(path)
	defer scratch.Close()
	span := g.span()
	batchStripes := max64(1, batchBytes/span)
	lastStripe := (l - 1) / span
	for bs0 := int64(0); bs0 <= lastStripe; bs0 += batchStripes {
		bs1 := min64(bs0+batchStripes-1, lastStripe)
		if err := ss.scrubBatch(scratch, bs0, bs1, l, repair, st); err != nil {
			return err
		}
	}
	return nil
}

// scrubBatch verifies (and with repair set, rewrites) the parity of
// stripes [bs0, bs1].
func (ss *StripeSet) scrubBatch(scratch *stripeFile, bs0, bs1, l int64, repair bool, st *ScrubStats) error {
	g := ss.geom
	nStripes := bs1 - bs0 + 1
	cb := getCallBufs()
	defer cb.release()
	dataBufs := cb.set(g.k, nStripes*g.s)
	if err := scratch.readShards(cb, bs0, bs1, l, dataBufs, -1); err != nil {
		return err
	}
	want := cb.set(g.m, nStripes*g.s)
	shards, pshards := cb.rows(g.k), cb.rows(g.m)
	for r := int64(0); r < nStripes; r++ {
		for j := 0; j < g.k; j++ {
			shards[j] = dataBufs[j][r*g.s : (r+1)*g.s]
		}
		for pi := 0; pi < g.m; pi++ {
			pshards[pi] = want[pi][r*g.s : (r+1)*g.s]
		}
		if err := ss.code.Encode(shards, pshards); err != nil {
			return err
		}
	}
	st.Stripes += nStripes
	lo := bs0 * g.s
	hi := min64(lo+nStripes*g.s, g.parityLen(l))
	if hi <= lo {
		return nil
	}
	got := cb.buf(hi - lo)
	for pi := 0; pi < g.m; pi++ {
		if err := scratch.nodeRead(g.k+pi, got, lo); err != nil {
			return err
		}
		// Count mismatching stripes, not bytes, so the number is
		// comparable across shard sizes.
		for r := int64(0); r < nStripes; r++ {
			slo := r * g.s
			shi := min64(slo+g.s, hi-lo)
			if slo >= shi {
				break
			}
			if !bytesEqual(got[slo:shi], want[pi][slo:shi]) {
				st.Mismatches++
				if repair {
					if err := scratch.nodeWrite(g.k+pi, want[pi][slo:shi], lo+slo); err != nil {
						return err
					}
					st.Repaired++
				}
			}
		}
	}
	return nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NodeStatus is one node's health snapshot.
type NodeStatus struct {
	Index        int    `json:"index"`
	Role         string `json:"role"` // "data" | "parity"
	Name         string `json:"name"`
	State        string `json:"state"` // healthy | quarantined | probing
	Stale        bool   `json:"stale"`
	Ops          int64  `json:"ops"`
	Faults       int64  `json:"faults"`
	BytesRead    int64  `json:"bytes_read"`
	BytesWritten int64  `json:"bytes_written"`
	Quarantines  int64  `json:"quarantines"`
}

// SetStatus is the whole stripe set's snapshot.
type SetStatus struct {
	Name               string       `json:"name"`
	DataNodes          int          `json:"data_nodes"`
	ParityNodes        int          `json:"parity_nodes"`
	ShardSize          int64        `json:"shard_size"`
	DegradedReads      int64        `json:"degraded_reads"`
	ReconstructedBytes int64        `json:"reconstructed_bytes"`
	RebuildBytes       int64        `json:"rebuild_bytes"`
	Rebuilds           int64        `json:"rebuilds"`
	Nodes              []NodeStatus `json:"nodes"`
}

// Status reports the live health of every node plus set-wide counters.
func (ss *StripeSet) Status() SetStatus {
	out := SetStatus{
		Name:               ss.Name(),
		DataNodes:          ss.geom.k,
		ParityNodes:        ss.geom.m,
		ShardSize:          ss.geom.s,
		DegradedReads:      ss.degradedReads.Load(),
		ReconstructedBytes: ss.reconstructedBytes.Load(),
		RebuildBytes:       ss.rebuildBytes.Load(),
		Rebuilds:           ss.rebuilds.Load(),
	}
	for i, n := range ss.nodes {
		br := n.br.Snapshot()
		out.Nodes = append(out.Nodes, NodeStatus{
			Index:        i,
			Role:         ss.roleOf(i),
			Name:         n.fileSystem().Name(),
			State:        br.State.String(),
			Stale:        n.stale.Load(),
			Ops:          br.Ops,
			Faults:       br.Faults,
			BytesRead:    n.bytesR.Load(),
			BytesWritten: n.bytesW.Load(),
			Quarantines:  br.Opens,
		})
	}
	return out
}

// stateCodes maps NodeStatus.State back to the breaker's number, the
// value mux_stripe_node_state exports.
var stateCodes = map[string]int64{
	guard.Closed.String():   int64(guard.Closed),
	guard.Open.String():     int64(guard.Open),
	guard.HalfOpen.String(): int64(guard.HalfOpen),
}

// Collect emits the set's families from Status, plus the families of
// every node that is itself a telemetry.Collector (a remote node's
// connection pool), labeled {set, node}.
func (ss *StripeSet) Collect() []telemetry.FamilySnapshot {
	c, g, v := telemetry.CounterFamily, telemetry.GaugeFamily, telemetry.Sample
	st := ss.Status()
	set := telemetry.Label{Key: "set", Value: ss.name}
	fams := []telemetry.FamilySnapshot{
		g("mux_stripe_nodes", "Stripe nodes per role.",
			v(int64(st.DataNodes), set, telemetry.Label{Key: "role", Value: "data"}),
			v(int64(st.ParityNodes), set, telemetry.Label{Key: "role", Value: "parity"})),
		g("mux_stripe_shard_bytes", "Stripe shard size in bytes.", v(st.ShardSize, set)),
		c("mux_stripe_degraded_reads_total", "Reads that reconstructed data from parity.", v(st.DegradedReads, set)),
		c("mux_stripe_reconstructed_bytes_total", "Data bytes rebuilt from parity on the read path.", v(st.ReconstructedBytes, set)),
		c("mux_stripe_rebuild_bytes_total", "Bytes written by node rebuilds.", v(st.RebuildBytes, set)),
		c("mux_stripe_rebuilds_total", "Completed node rebuilds.", v(st.Rebuilds, set)),
	}
	bytes := c("mux_stripe_node_bytes_total", "Per-node shard bytes moved.")
	nodes := telemetry.Columns{
		c("mux_stripe_node_ops_total", "Per-node operations booked by the node's breaker."),
		c("mux_stripe_node_errors_total", "Per-node faults observed by the stripe layer."),
		c("mux_stripe_node_quarantines_total", "Times a node's circuit breaker opened."),
		g("mux_stripe_node_state", "Breaker state per node: 0 healthy, 1 quarantined, 2 probing."),
		g("mux_stripe_node_stale", "1 while a node has missed writes; it serves no reads until rebuilt."),
	}
	var nodeFams []telemetry.FamilySnapshot
	for _, n := range st.Nodes {
		var stale int64
		if n.Stale {
			stale = 1
		}
		ls := ss.nodeLabels(n.Index, "")
		nodes.Row([]int64{n.Ops, n.Faults, n.Quarantines, stateCodes[n.State], stale}, ls...)
		bytes.Series = append(bytes.Series,
			v(n.BytesRead, ss.nodeLabels(n.Index, "read")...), v(n.BytesWritten, ss.nodeLabels(n.Index, "write")...))
		if col, ok := ss.nodes[n.Index].fileSystem().(telemetry.Collector); ok {
			nodeFams = append(nodeFams, telemetry.WithLabels(col.Collect(), set, ls[1])...)
		}
	}
	return append(append(append(fams, bytes), nodes...), nodeFams...)
}
