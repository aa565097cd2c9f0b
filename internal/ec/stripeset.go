package ec

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/guard"
	"muxfs/internal/telemetry"
	"muxfs/internal/vfs"
)

// Default geometry and breaker tuning.
const (
	DefaultShardSize  = 64 << 10 // 64 KiB shards: big enough to amortize RPC, small enough to stripe small files
	DefaultNodeFanout = 4        // concurrent ops in flight per node
	DefaultCooldown   = 2 * time.Second
	// failThreshold is the consecutive-fault count that quarantines a node.
	failThreshold = 3
	// batchBytes bounds the stripe buffers a single read/write materializes
	// at once (per node the slice is batchBytes/k).
	batchBytes = 4 << 20
)

// Errors surfaced by the stripe layer.
var (
	// ErrDegraded reports an operation that could not complete because
	// more nodes are unavailable than parity can cover.
	ErrDegraded = errors.New("ec: too many stripe nodes unavailable")
	// ErrBadGeometry reports an unusable k/m/shard-size combination.
	ErrBadGeometry = errors.New("ec: bad stripe geometry")
	// ErrNodeIndex reports an out-of-range node index.
	ErrNodeIndex = errors.New("ec: no such node")
)

// Options tunes a StripeSet.
type Options struct {
	// Parity is the number of parity nodes M; 0 disables redundancy
	// (pure striping).
	Parity int
	// ShardSize is the stripe shard size in bytes (default 64 KiB). Use a
	// multiple of the node file systems' block size.
	ShardSize int64
	// NodeFanout bounds concurrent in-flight operations per node
	// (default 4) — the per-node analogue of the core engine's per-tier
	// data-path gate.
	NodeFanout int
	// Cooldown is how long a breaker stays open before a probe
	// (default 2s).
	Cooldown time.Duration
	// Telemetry, when set, registers the per-node shard I/O latency
	// histograms on the registry. The set's counters are not instruments:
	// the set is a telemetry.Collector over the counters Status reads.
	Telemetry *telemetry.Registry
}

// node is one member of the stripe set: a vfs.FileSystem (usually a
// muxrpc.NSClient, but any FileSystem works), its in-flight gate, and its
// circuit breaker (wall clock, since the set's creation).
type node struct {
	fsMu sync.RWMutex
	fs   vfs.FileSystem
	gen  atomic.Int64 // bumped on ReplaceNode so cached handles reopen

	gate *guard.Gate
	br   guard.Breaker

	stale atomic.Bool // missed writes; serves no reads until rebuilt

	bytesR, bytesW   atomic.Int64
	telLatR, telLatW *telemetry.Histogram
}

func (n *node) fileSystem() vfs.FileSystem {
	n.fsMu.RLock()
	defer n.fsMu.RUnlock()
	return n.fs
}

// record feeds an operation outcome to the breaker. ec's classifier: only
// device/transport faults count against a node; a logical file-system
// error is a healthy answer.
func (n *node) record(err error) {
	if !isNodeFault(err) {
		n.br.Record(guard.Success, nil)
		return
	}
	n.br.Record(guard.Fault, err)
}

// isNodeFault distinguishes node failures (socket errors, handshake
// breakage, device faults) from logical answers (ErrNotExist & friends),
// mirroring the device.IsFault convention of the core health tracker.
func isNodeFault(err error) bool {
	if err == nil || errors.Is(err, io.EOF) {
		return false
	}
	for _, logical := range []error{
		vfs.ErrNotExist, vfs.ErrExist, vfs.ErrIsDir, vfs.ErrNotDir,
		vfs.ErrNotEmpty, vfs.ErrNoSpace, vfs.ErrInvalid, vfs.ErrReadOnly,
		vfs.ErrConflict, vfs.ErrClosed,
	} {
		if errors.Is(err, logical) {
			return false
		}
	}
	return true
}

// fileMeta is the per-path bookkeeping: the cached logical size and the
// lock that orders readers (RLock) against writers/truncators (Lock).
type fileMeta struct {
	mu     sync.RWMutex
	size   int64
	loaded bool
}

// StripeSet is a composite vfs.FileSystem that stripes every file across
// k data nodes with m parity nodes (RAID-4 layout, Reed–Solomon parity,
// XOR when m = 1). It is registered with Mux like any other tier; the
// namespace is mirrored on every node and file bytes are sharded.
//
// Size bookkeeping uses no headers or sidecars: every parity node file is
// truncated to the exact logical size (its parity payload is always
// shorter, the tail is a hole), and data node file sizes are exact shard
// coverage, so the logical size is recoverable from any parity node — or
// from the data nodes alone — with up to m nodes missing.
type StripeSet struct {
	name  string
	geom  geom
	code  *Code
	nodes []*node

	metaMu sync.Mutex
	meta   map[string]*fileMeta

	degradedReads      atomic.Int64
	reconstructedBytes atomic.Int64
	rebuildBytes       atomic.Int64
	rebuilds           atomic.Int64

	tel *telemetry.Registry
}

var _ vfs.FileSystem = (*StripeSet)(nil)

// New assembles a StripeSet over the given node file systems: the first
// len(nodes)-opts.Parity are data nodes, the rest parity.
func New(name string, nodes []vfs.FileSystem, opts Options) (*StripeSet, error) {
	m := opts.Parity
	k := len(nodes) - m
	if k < 1 || m < 0 {
		return nil, fmt.Errorf("%w: %d nodes, %d parity", ErrBadGeometry, len(nodes), m)
	}
	s := opts.ShardSize
	if s == 0 {
		s = DefaultShardSize
	}
	if s < 512 || s%512 != 0 {
		return nil, fmt.Errorf("%w: shard size %d", ErrBadGeometry, s)
	}
	code, err := NewCode(k, m)
	if err != nil {
		return nil, err
	}
	fan := opts.NodeFanout
	if fan <= 0 {
		fan = DefaultNodeFanout
	}
	cd := opts.Cooldown
	if cd <= 0 {
		cd = DefaultCooldown
	}
	ss := &StripeSet{
		name: name,
		geom: geom{k: k, m: m, s: s},
		code: code,
		meta: map[string]*fileMeta{},
		tel:  opts.Telemetry,
	}
	epoch := time.Now()
	since := func() time.Duration { return time.Since(epoch) }
	for i, fs := range nodes {
		n := &node{
			fs:   fs,
			gate: guard.NewGate(fan),
			br:   guard.Breaker{Threshold: failThreshold, Cooldown: cd, Now: since},
		}
		if r := opts.Telemetry; r != nil {
			const help = "Per-node shard I/O latency."
			n.telLatR = r.Histogram("mux_stripe_node_io_ns", help, ss.nodeLabels(i, "read")...)
			n.telLatW = r.Histogram("mux_stripe_node_io_ns", help, ss.nodeLabels(i, "write")...)
		}
		ss.nodes = append(ss.nodes, n)
	}
	return ss, nil
}

// nodeLabels is node i's label set {set, node, role}, plus {op} when op
// is not empty.
func (ss *StripeSet) nodeLabels(i int, op string) []telemetry.Label {
	ls := []telemetry.Label{
		{Key: "set", Value: ss.name},
		{Key: "node", Value: strconv.Itoa(i)},
		{Key: "role", Value: ss.roleOf(i)},
	}
	if op != "" {
		ls = append(ls, telemetry.Label{Key: "op", Value: op})
	}
	return ls
}

func (ss *StripeSet) roleOf(i int) string {
	if i < ss.geom.k {
		return "data"
	}
	return "parity"
}

// Geometry reports the set's data and parity node counts.
func (ss *StripeSet) Geometry() (data, parity int) { return ss.geom.k, ss.geom.m }

// Name identifies the composite tier.
func (ss *StripeSet) Name() string {
	return fmt.Sprintf("stripe:%s[%d+%d]", ss.name, ss.geom.k, ss.geom.m)
}

// getMeta returns (creating if needed) the per-path bookkeeping entry.
func (ss *StripeSet) getMeta(path string) *fileMeta {
	ss.metaMu.Lock()
	defer ss.metaMu.Unlock()
	fm := ss.meta[path]
	if fm == nil {
		fm = &fileMeta{}
		ss.meta[path] = fm
	}
	return fm
}

func (ss *StripeSet) dropMeta(path string) {
	ss.metaMu.Lock()
	delete(ss.meta, path)
	ss.metaMu.Unlock()
}

func (ss *StripeSet) moveMeta(oldPath, newPath string) {
	ss.metaMu.Lock()
	if fm, ok := ss.meta[oldPath]; ok {
		delete(ss.meta, oldPath)
		ss.meta[newPath] = fm
	} else {
		delete(ss.meta, newPath)
	}
	ss.metaMu.Unlock()
}

// nodeCall runs fn against node i under its gate and feeds the breaker.
// It returns errSkipped without calling fn when the breaker rejects the
// node.
var errSkipped = errors.New("ec: node skipped (quarantined)")

func (ss *StripeSet) nodeCall(i int, fn func(fs vfs.FileSystem) error) error {
	n := ss.nodes[i]
	if !n.br.Allow() {
		return errSkipped
	}
	n.gate.Acquire()
	err := fn(n.fileSystem())
	n.gate.Release()
	n.record(err)
	return err
}

// fanAll runs fn on every node concurrently and returns per-node errors.
func (ss *StripeSet) fanAll(fn func(i int, fs vfs.FileSystem) error) []error {
	errs := make([]error, len(ss.nodes))
	var wg sync.WaitGroup
	for i := range ss.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ss.nodeCall(i, func(fs vfs.FileSystem) error { return fn(i, fs) })
		}(i)
	}
	wg.Wait()
	return errs
}

// pickAuthority returns the index of the first live, non-stale node —
// the node whose logical answer (ErrNotExist, ErrExist, …) speaks for
// the mirrored namespace.
func (ss *StripeSet) pickAuthority() int {
	for i, n := range ss.nodes {
		if !n.stale.Load() && n.br.Available() {
			return i
		}
	}
	return -1
}

// resolveNS interprets the per-node outcomes of a namespace operation:
// the authoritative live node's logical answer wins; nodes that missed a
// mutation are marked stale; more than m unusable nodes is a failure.
func (ss *StripeSet) resolveNS(errs []error, mutating bool) error {
	auth := ss.pickAuthority()
	bad := 0
	var firstFault error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if err == errSkipped || isNodeFault(err) {
			bad++
			if firstFault == nil && err != errSkipped {
				firstFault = err
			}
			if mutating {
				ss.nodes[i].stale.Store(true)
			}
		}
	}
	if auth >= 0 {
		if err := errs[auth]; err != nil && err != errSkipped && !isNodeFault(err) {
			return err
		}
		if errs[auth] == nil && bad <= ss.geom.m {
			return nil
		}
	}
	if bad > ss.geom.m {
		if firstFault != nil {
			return fmt.Errorf("%w: %v", ErrDegraded, firstFault)
		}
		return ErrDegraded
	}
	// Authority itself failed with a fault but enough nodes answered:
	// find any live logical answer.
	for _, err := range errs {
		if err == nil {
			return nil
		}
		if err != errSkipped && !isNodeFault(err) {
			return err
		}
	}
	return ErrDegraded
}

// --- vfs.FileSystem namespace surface ---

// Create makes (or truncates, per node semantics) the file on every node.
func (ss *StripeSet) Create(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	fm := ss.getMeta(path)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error {
		f, err := fs.Create(path)
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err := ss.resolveNS(errs, true); err != nil {
		return nil, err
	}
	fm.size, fm.loaded = 0, true
	return ss.newFile(path), nil
}

// Open opens the striped file for I/O.
func (ss *StripeSet) Open(path string) (vfs.File, error) {
	path = vfs.CleanPath(path)
	info, err := ss.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return nil, vfs.ErrIsDir
	}
	return ss.newFile(path), nil
}

// Remove deletes the path on every node.
func (ss *StripeSet) Remove(path string) error {
	path = vfs.CleanPath(path)
	fm := ss.getMeta(path)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error { return fs.Remove(path) })
	err := ss.resolveNS(errs, true)
	if err == nil {
		ss.dropMeta(path)
	}
	return err
}

// Rename moves the path on every node.
func (ss *StripeSet) Rename(oldPath, newPath string) error {
	oldPath, newPath = vfs.CleanPath(oldPath), vfs.CleanPath(newPath)
	fm := ss.getMeta(oldPath)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error { return fs.Rename(oldPath, newPath) })
	err := ss.resolveNS(errs, true)
	if err == nil {
		ss.moveMeta(oldPath, newPath)
	}
	return err
}

// Mkdir creates the directory on every node.
func (ss *StripeSet) Mkdir(path string) error {
	path = vfs.CleanPath(path)
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error { return fs.Mkdir(path) })
	return ss.resolveNS(errs, true)
}

// ReadDir lists the directory from the authoritative node.
func (ss *StripeSet) ReadDir(path string) ([]vfs.DirEntry, error) {
	path = vfs.CleanPath(path)
	var out []vfs.DirEntry
	err := ss.authorityCall(func(fs vfs.FileSystem) error {
		var err error
		out, err = fs.ReadDir(path)
		return err
	})
	return out, err
}

// authorityCall runs fn against live nodes in authority order until one
// gives a non-fault answer.
func (ss *StripeSet) authorityCall(fn func(fs vfs.FileSystem) error) error {
	var lastErr error = ErrDegraded
	for i, n := range ss.nodes {
		if n.stale.Load() {
			continue
		}
		err := ss.nodeCall(i, fn)
		if err == errSkipped || isNodeFault(err) {
			if err != errSkipped {
				lastErr = err
			}
			continue
		}
		return err
	}
	if lastErr != ErrDegraded {
		return fmt.Errorf("%w: %v", ErrDegraded, lastErr)
	}
	return lastErr
}

// Stat composes logical metadata: size from the stripe bookkeeping,
// mode from the authoritative node, times as the max across nodes (every
// write touches parity, so parity mtime is always current), blocks as the
// sum of allocated bytes on all nodes.
func (ss *StripeSet) Stat(path string) (vfs.FileInfo, error) {
	path = vfs.CleanPath(path)
	infos := make([]vfs.FileInfo, len(ss.nodes))
	oks := make([]bool, len(ss.nodes))
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error {
		info, err := fs.Stat(path)
		if err == nil {
			infos[i], oks[i] = info, true
		}
		return err
	})
	if err := ss.resolveNS(errs, false); err != nil {
		return vfs.FileInfo{}, err
	}
	auth := -1
	for i, ok := range oks {
		if ok && !ss.nodes[i].stale.Load() {
			auth = i
			break
		}
	}
	if auth < 0 {
		return vfs.FileInfo{}, ErrDegraded
	}
	out := infos[auth]
	out.Path = path
	if out.IsDir() {
		return out, nil
	}
	var blocks int64
	for i, ok := range oks {
		if !ok {
			continue
		}
		blocks += infos[i].Blocks
		if infos[i].ModTime > out.ModTime {
			out.ModTime = infos[i].ModTime
		}
		if infos[i].ATime > out.ATime {
			out.ATime = infos[i].ATime
		}
		if infos[i].CTime > out.CTime {
			out.CTime = infos[i].CTime
		}
	}
	out.Blocks = blocks
	out.Size = ss.sizeFromStats(infos, oks)
	// Keep the cache coherent while we hold fresh stats.
	fm := ss.getMeta(path)
	fm.mu.Lock()
	if !fm.loaded {
		fm.size, fm.loaded = out.Size, true
	} else {
		out.Size = fm.size
	}
	fm.mu.Unlock()
	return out, nil
}

// sizeFromStats recovers the logical size from node stats: any parity
// node's file size is exact; otherwise the max of the data nodes' implied
// sizes.
func (ss *StripeSet) sizeFromStats(infos []vfs.FileInfo, oks []bool) int64 {
	for p := ss.geom.k; p < len(ss.nodes); p++ {
		if oks[p] && !ss.nodes[p].stale.Load() {
			return infos[p].Size
		}
	}
	var l int64
	for j := 0; j < ss.geom.k; j++ {
		if !oks[j] {
			continue
		}
		if v := ss.geom.implied(j, infos[j].Size); v > l {
			l = v
		}
	}
	return l
}

// SetAttr applies metadata updates; size changes route through Truncate.
func (ss *StripeSet) SetAttr(path string, attr vfs.SetAttr) error {
	path = vfs.CleanPath(path)
	if attr.Size != nil {
		size := *attr.Size
		rest := attr
		rest.Size = nil
		if err := ss.Truncate(path, size); err != nil {
			return err
		}
		if rest.Mode == nil && rest.ModTime == nil && rest.ATime == nil {
			return nil
		}
		attr = rest
	}
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error { return fs.SetAttr(path, attr) })
	return ss.resolveNS(errs, true)
}

// Statfs aggregates capacity over the data nodes (parity capacity is
// overhead, not user-visible space).
func (ss *StripeSet) Statfs() (vfs.StatFS, error) {
	stats := make([]vfs.StatFS, len(ss.nodes))
	oks := make([]bool, len(ss.nodes))
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error {
		st, err := fs.Statfs()
		if err == nil {
			stats[i], oks[i] = st, true
		}
		return err
	})
	if err := ss.resolveNS(errs, false); err != nil {
		return vfs.StatFS{}, err
	}
	var out vfs.StatFS
	for j := 0; j < ss.geom.k; j++ {
		if !oks[j] {
			continue
		}
		out.Capacity += stats[j].Capacity
		out.Used += stats[j].Used
	}
	out.Available = out.Capacity - out.Used
	for i, ok := range oks {
		if ok && stats[i].Files > out.Files {
			out.Files = stats[i].Files
		}
	}
	return out, nil
}

// RawUsed returns the allocated bytes summed over every node including
// parity — the numerator of the space-overhead measurement.
func (ss *StripeSet) RawUsed() (int64, error) {
	var total atomic.Int64
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error {
		st, err := fs.Statfs()
		if err == nil {
			total.Add(st.Used)
		}
		return err
	})
	if err := ss.resolveNS(errs, false); err != nil {
		return 0, err
	}
	return total.Load(), nil
}

// Sync persists every node.
func (ss *StripeSet) Sync() error {
	errs := ss.fanAll(func(i int, fs vfs.FileSystem) error { return fs.Sync() })
	return ss.resolveNS(errs, true)
}

// sortExtents orders and merges adjacent/overlapping logical runs.
func sortExtents(ext []vfs.Extent) []vfs.Extent {
	if len(ext) == 0 {
		return ext
	}
	sort.Slice(ext, func(i, j int) bool { return ext[i].Off < ext[j].Off })
	out := ext[:1]
	for _, e := range ext[1:] {
		last := &out[len(out)-1]
		if e.Off <= last.End() {
			if e.End() > last.End() {
				last.Len = e.End() - last.Off
			}
			continue
		}
		out = append(out, e)
	}
	return out
}
