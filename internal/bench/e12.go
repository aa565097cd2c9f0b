package bench

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"muxfs/internal/device"
	"muxfs/internal/ec"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/muxrpc"
	"muxfs/internal/server"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// E12 — scale-out capacity tier: striping throughput, degraded reads,
// rebuild bandwidth, and space overhead vs replication.
//
// The scale-out tier (internal/ec) stripes file bytes across K remote
// muxd nodes with M Reed–Solomon parity nodes, so one tier's bandwidth
// and capacity grow with node count while surviving M node losses. This
// experiment measures all four claims over real loopback muxns — every
// byte crosses a TCP connection from the pooled client — with each node
// behind the same wall-clock service-time governor E5/E7/E10 use, so
// single-host CPU contention cannot fake or hide scaling:
//
//   - Scaling: sequential write + read throughput of one striped file at
//     K = 1 (baseline, no parity), 2+1, 4+1 (and 8+1 in the full run).
//     The governor serves ~1 MiB per node per e12ServiceRate, so K nodes
//     draining in parallel give ~K× the bytes per wall second; the gap to
//     ideal is the RPC + parity-encode overhead.
//   - Degraded reads: on a 3+1 set, one node's listener and established
//     sockets are severed mid-read. Every byte must still come back
//     correct (reconstructed from parity) with zero user-visible errors.
//   - Rebuild: the dead node is replaced with an empty server and
//     rebuilt from the survivors; reported as reconstruction bandwidth.
//     A parity scrub afterwards must be clean — redundancy is restored.
//   - Space overhead: raw bytes stored across all 4+1 nodes vs the
//     logical file size, against the 3.0× of triple mirroring delivering
//     the same loss tolerance class.
const (
	// e12ServiceRate is each node's governed service time per MiB
	// (~21 MiB/s per node): large enough that sleeps dominate the RPC
	// encode/decode CPU cost even on a single core, so scaling reflects
	// fan-out, not scheduling luck.
	e12ServiceRate = int64(48 * time.Millisecond)
	e12Chunk       = 1 << 20 // I/O unit: stripe-aligned for k ∈ {1,2,4,8} at 64 KiB shards
)

// E12ScaleRow is one cluster size's sequential throughput.
type E12ScaleRow struct {
	DataNodes    int
	ParityNodes  int
	WriteMBps    float64
	ReadMBps     float64
	WriteSpeedup float64 // vs the 1-node row
	ReadSpeedup  float64
}

// E12Degraded is the node-loss drill.
type E12Degraded struct {
	DataNodes          int
	ParityNodes        int
	KilledNode         int
	UserErrors         int   // reads that failed after the kill (must be 0)
	BytesRead          int64 // bytes served while degraded
	DegradedReads      int64 // batch reads that reconstructed from parity
	ReconstructedBytes int64
	ReadMBps           float64 // degraded read throughput
}

// E12Rebuild is the node-replacement rebuild.
type E12Rebuild struct {
	Files           int
	Bytes           int64 // bytes written to the replacement node
	Wall            time.Duration
	MBps            float64 // reconstruction bandwidth
	ScrubStripes    int64
	ScrubMismatches int64 // must be 0: redundancy restored
}

// E12Overhead compares erasure-coded raw usage with replication.
type E12Overhead struct {
	DataNodes    int
	ParityNodes  int
	LogicalBytes int64
	RawBytes     int64   // allocated across every node, parity included
	Ratio        float64 // RawBytes / LogicalBytes
	MirrorRatio  float64 // triple mirroring's ratio for the same durability class
}

// E12Result is the scale-out tier experiment.
type E12Result struct {
	Smoke    bool
	Scale    []E12ScaleRow
	Degraded E12Degraded
	Rebuild  E12Rebuild
	Overhead E12Overhead
}

// e12Node is one served stripe node: governed native FS behind a real
// loopback listener.
type e12Node struct {
	gov *slowFS
	lis net.Listener
	srv *server.Server
}

// kill severs the node: the listener and every established connection
// go away, and the server stops.
func (n *e12Node) kill() {
	n.lis.Close()
	n.srv.Close()
}

func newE12Node(name string) (*e12Node, error) {
	dev := device.New(device.SSDProfile(name), simclock.New())
	fs, err := xfslite.New(name, dev)
	if err != nil {
		return nil, err
	}
	gov := &slowFS{FileSystem: fs}
	gov.rateNsPerMiB.Store(e12ServiceRate)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &e12Node{gov: gov, lis: l, srv: muxrpc.NewServer(gov)}
	go n.srv.Serve(l)
	return n, nil
}

// e12Cluster is a striped set over served nodes plus its dialed clients.
type e12Cluster struct {
	nodes   []*e12Node
	clients []*muxrpc.NSClient
	set     *ec.StripeSet
}

func newE12Cluster(k, m int) (*e12Cluster, error) {
	c := &e12Cluster{}
	fses := make([]vfs.FileSystem, 0, k+m)
	for i := 0; i < k+m; i++ {
		n, err := newE12Node(fmt.Sprintf("e12-n%d", i))
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		cl, err := muxrpc.DialPool("tcp", n.lis.Addr().String(), maxInt(k, 2))
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
		fses = append(fses, cl)
	}
	set, err := ec.New("e12", fses, ec.Options{Parity: m, Cooldown: 10 * time.Second})
	if err != nil {
		c.close()
		return nil, err
	}
	c.set = set
	return c, nil
}

func (c *e12Cluster) arm(on bool) {
	for _, n := range c.nodes {
		n.gov.armed.Store(on)
	}
}

func (c *e12Cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, n := range c.nodes {
		n.kill()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// e12WriteSeq writes total bytes in stripe-aligned chunks and returns the
// wall-clock MB/s.
func e12WriteSeq(set *ec.StripeSet, path string, total int64) (float64, error) {
	f, err := set.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	chunk := e12Pattern(e12Chunk, 0x5a)
	start := time.Now()
	for off := int64(0); off < total; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return mbps(total, time.Since(start)), nil
}

// e12ReadSeq reads the file back and verifies the pattern.
func e12ReadSeq(set *ec.StripeSet, path string, total int64) (float64, error) {
	f, err := set.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	want := e12Pattern(e12Chunk, 0x5a)
	buf := make([]byte, e12Chunk)
	start := time.Now()
	for off := int64(0); off < total; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			return 0, err
		}
		if !bytes.Equal(buf, want) {
			return 0, fmt.Errorf("read verification failed at %d", off)
		}
	}
	return mbps(total, time.Since(start)), nil
}

func e12Pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + salt
	}
	return p
}

// RunE12 runs the scale-out capacity tier experiment. Smoke writes 8 MiB
// per phase instead of 32 and stops the scaling sweep at K = 4.
func RunE12(size Size) (E12Result, error) {
	r := E12Result{Smoke: size == Smoke}
	total := int64(32 << 20)
	geoms := []struct{ k, m int }{{1, 0}, {2, 1}, {4, 1}, {8, 1}}
	if r.Smoke {
		total = 8 << 20
		geoms = geoms[:3]
	}

	// Phase 1: throughput scaling with node count.
	for _, g := range geoms {
		c, err := newE12Cluster(g.k, g.m)
		if err != nil {
			return r, err
		}
		c.arm(true)
		w, err := e12WriteSeq(c.set, "/scale", total)
		if err != nil {
			c.close()
			return r, fmt.Errorf("e12 %d+%d write: %w", g.k, g.m, err)
		}
		rd, err := e12ReadSeq(c.set, "/scale", total)
		if err != nil {
			c.close()
			return r, fmt.Errorf("e12 %d+%d read: %w", g.k, g.m, err)
		}
		c.close()
		row := E12ScaleRow{DataNodes: g.k, ParityNodes: g.m, WriteMBps: w, ReadMBps: rd}
		if len(r.Scale) > 0 {
			row.WriteSpeedup = w / r.Scale[0].WriteMBps
			row.ReadSpeedup = rd / r.Scale[0].ReadMBps
		} else {
			row.WriteSpeedup, row.ReadSpeedup = 1, 1
		}
		r.Scale = append(r.Scale, row)
	}

	// Phase 2+3: degraded reads and rebuild on a 3+1 set.
	const dk, dm, victim = 3, 1, 1
	c, err := newE12Cluster(dk, dm)
	if err != nil {
		return r, err
	}
	defer c.close()
	if _, err := e12WriteSeq(c.set, "/drill", total); err != nil {
		return r, fmt.Errorf("e12 drill write: %w", err)
	}

	// Sever the victim mid-read: listener + sockets both go away.
	c.arm(true)
	f, err := c.set.Open("/drill")
	if err != nil {
		return r, err
	}
	want := e12Pattern(e12Chunk, 0x5a)
	buf := make([]byte, e12Chunk)
	d := E12Degraded{DataNodes: dk, ParityNodes: dm, KilledNode: victim}
	start := time.Now()
	for off := int64(0); off < total; off += int64(len(buf)) {
		if off == 2*e12Chunk {
			c.nodes[victim].kill()
		}
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			d.UserErrors++
			continue
		}
		if !bytes.Equal(buf, want) {
			d.UserErrors++
			continue
		}
		d.BytesRead += int64(len(buf))
	}
	wall := time.Since(start)
	f.Close()
	st := c.set.Status()
	d.DegradedReads = st.DegradedReads
	d.ReconstructedBytes = st.ReconstructedBytes
	d.ReadMBps = mbps(d.BytesRead, wall)
	r.Degraded = d

	// Replace the dead node with an empty server and rebuild. The
	// governor stays armed: rebuild bandwidth is measured under the same
	// service rates as the data path.
	repl, err := newE12Node("e12-repl")
	if err != nil {
		return r, err
	}
	repl.gov.armed.Store(true)
	defer repl.kill()
	rcl, err := muxrpc.DialPool("tcp", repl.lis.Addr().String(), dk)
	if err != nil {
		return r, err
	}
	defer rcl.Close()
	if err := c.set.ReplaceNode(victim, rcl); err != nil {
		return r, err
	}
	start = time.Now()
	rb, err := c.set.Rebuild(victim)
	if err != nil {
		return r, fmt.Errorf("e12 rebuild: %w", err)
	}
	rwall := time.Since(start)
	sc, err := c.set.Scrub(false)
	if err != nil {
		return r, fmt.Errorf("e12 scrub: %w", err)
	}
	r.Rebuild = E12Rebuild{
		Files:           rb.Files,
		Bytes:           rb.Bytes,
		Wall:            rwall,
		MBps:            mbps(rb.Bytes, rwall),
		ScrubStripes:    sc.Stripes,
		ScrubMismatches: sc.Mismatches,
	}

	// Phase 4: space overhead at 4+1 vs triple mirroring.
	oc, err := newE12Cluster(4, 1)
	if err != nil {
		return r, err
	}
	defer oc.close()
	if _, err := e12WriteSeq(oc.set, "/space", total); err != nil {
		return r, fmt.Errorf("e12 overhead write: %w", err)
	}
	raw, err := oc.set.RawUsed()
	if err != nil {
		return r, err
	}
	r.Overhead = E12Overhead{
		DataNodes:    4,
		ParityNodes:  1,
		LogicalBytes: total,
		RawBytes:     raw,
		Ratio:        float64(raw) / float64(total),
		MirrorRatio:  3.0,
	}
	return r, nil
}

// Format renders the result tables.
func (r E12Result) Format(w io.Writer) {
	mode := "full"
	if r.Smoke {
		mode = "smoke"
	}
	fmt.Fprintf(w, "scale-out capacity tier (%s): striped file over K data + M parity muxd nodes, loopback RPC\n\n", mode)
	fmt.Fprintf(w, "  %-7s %12s %12s %10s %10s\n", "nodes", "write MB/s", "read MB/s", "w-speedup", "r-speedup")
	for _, row := range r.Scale {
		fmt.Fprintf(w, "  %d+%-5d %12.1f %12.1f %9.2fx %9.2fx\n",
			row.DataNodes, row.ParityNodes, row.WriteMBps, row.ReadMBps, row.WriteSpeedup, row.ReadSpeedup)
	}
	d := r.Degraded
	fmt.Fprintf(w, "\nnode-loss drill (%d+%d, node %d severed mid-read):\n", d.DataNodes, d.ParityNodes, d.KilledNode)
	fmt.Fprintf(w, "  user-visible errors   %d\n", d.UserErrors)
	fmt.Fprintf(w, "  bytes served          %d (%.1f MB/s degraded)\n", d.BytesRead, d.ReadMBps)
	fmt.Fprintf(w, "  parity reconstructions %d batches, %d bytes\n", d.DegradedReads, d.ReconstructedBytes)
	fmt.Fprintf(w, "\nrebuild onto replacement node:\n")
	fmt.Fprintf(w, "  %d files, %d bytes in %v (%.1f MB/s)\n", r.Rebuild.Files, r.Rebuild.Bytes, r.Rebuild.Wall.Round(time.Millisecond), r.Rebuild.MBps)
	fmt.Fprintf(w, "  scrub: %d stripes, %d mismatches\n", r.Rebuild.ScrubStripes, r.Rebuild.ScrubMismatches)
	o := r.Overhead
	fmt.Fprintf(w, "\nspace overhead (%d+%d erasure coding vs 3x mirroring):\n", o.DataNodes, o.ParityNodes)
	fmt.Fprintf(w, "  logical %d B, raw %d B -> %.2fx (mirroring: %.1fx)\n", o.LogicalBytes, o.RawBytes, o.Ratio, o.MirrorRatio)
}

// Check requires a throughput row per cluster size, the node-loss drill to
// serve the whole file with zero user-visible errors through real parity
// reconstructions, the rebuild to restore redundancy (clean scrub), and
// 4+1 raw usage within 1.3x of the logical bytes. At AllGates it adds the
// scaling claim: 4 data nodes at least 2x one node (1.5x at smoke size,
// in-process loopback on shared runners). Under the race detector the
// instrumented wire codec dwarfs the governed service sleeps, so fan-out
// overlap cannot show there.
func (r E12Result) Check(g Gates) error {
	var v verdict
	wantRows, minSpeedup := 4, 2.0
	if r.Smoke {
		wantRows, minSpeedup = 3, 1.5
	}
	v.require(len(r.Scale) == wantRows, "want %d scaling rows, got %d", wantRows, len(r.Scale))
	for _, row := range r.Scale {
		v.require(row.WriteMBps > 0 && row.ReadMBps > 0, "%d+%d row measured no throughput: %+v", row.DataNodes, row.ParityNodes, row)
		if g >= AllGates && row.DataNodes == 4 {
			v.require(row.ReadSpeedup >= minSpeedup && row.WriteSpeedup >= minSpeedup,
				"4-node speedup %.2fx read / %.2fx write below the %.1fx gate", row.ReadSpeedup, row.WriteSpeedup, minSpeedup)
		}
	}
	d := r.Degraded
	v.require(d.UserErrors == 0, "node-loss drill surfaced %d user-visible errors, want 0", d.UserErrors)
	v.require(d.DegradedReads > 0, "drill read everything without a parity reconstruction; the node kill was ineffective")
	v.require(d.BytesRead == r.Overhead.LogicalBytes, "drill served %d bytes, want the whole %d-byte file", d.BytesRead, r.Overhead.LogicalBytes)
	v.require(r.Rebuild.Bytes > 0 && r.Rebuild.MBps > 0, "rebuild reported no work: %+v", r.Rebuild)
	v.require(r.Rebuild.ScrubMismatches == 0, "%d parity mismatches after rebuild", r.Rebuild.ScrubMismatches)
	v.require(r.Overhead.Ratio >= 1.0 && r.Overhead.Ratio <= 1.3, "4+1 space overhead %.2fx outside [1.0, 1.3] (mirroring is %.1fx)", r.Overhead.Ratio, r.Overhead.MirrorRatio)
	return v.err()
}
