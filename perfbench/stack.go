package main

// Stack assembly from the program's public constructors. Each build function
// wires the layers together itself, so in a traced run it can slip a
// timing wrapper into every seam (see trace.go).

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/device"
	"muxfs/internal/ec"
	"muxfs/internal/fs/blockfs"
	"muxfs/internal/fs/extlite"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/muxrpc"
	"muxfs/internal/policy"
	"muxfs/internal/server"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// devNames fixes the order devices are reported in.
var devNames = []string{"pm", "ssd", "hdd", "meta", "node0", "node1", "node2"}

// stack is one assembled system under test.
type stack struct {
	clk   *simclock.Clock
	mux   *core.Mux      // the Mux itself, for policy rounds, crash and fsck
	muxFS vfs.FileSystem // the Mux as in-process clients call it
	devs  map[string]*device.Device
	// spaceFS are the native file systems whose Statfs().Used is device
	// space in use: the tier file systems, or the stripe nodes' file
	// systems in place of the StripeSet.
	spaceFS []vfs.FileSystem
	caches  map[string]*blockfs.FS // page-cached tiers, by device name
	nodes   []vfs.CrashRecoverer   // stripe node file systems, in-process

	srv     *server.Server
	addr    string // namespace server address, when served
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// tieredSpec sizes a PM/SSD/HDD Mux.
type tieredSpec struct {
	pmBytes int64
	policy  policy.Policy
}

const hddBytes = 2 << 30

// newMux builds the Mux with its journal on a dedicated PM meta device.
func newMux(t *tracer, clk *simclock.Clock, pol policy.Policy, devs map[string]*device.Device) (*core.Mux, error) {
	prof := device.PMProfile("muxmeta")
	prof.Capacity = 32 << 20
	devs["meta"] = device.New(prof, clk)
	return core.New(core.Config{
		Name:       "mux",
		Clock:      clk,
		Policy:     t.wrapPolicy(pol),
		MetaDevice: devs["meta"],
		// Serial migration: with parallel workers the order of moves on
		// the HDD (whose seek cost depends on the previous access) and
		// the batching of journal group commits vary from run to run, so
		// virtual time and device bytes would not repeat for a seed.
		MigrationWorkers: 1,
	})
}

// buildTiered assembles a PM (novafs) / SSD (xfslite) / HDD (extlite)
// Mux.
func buildTiered(t *tracer, spec tieredSpec) (*stack, error) {
	clk := simclock.New()
	s := &stack{clk: clk, devs: map[string]*device.Device{}, caches: map[string]*blockfs.FS{}}
	m, err := newMux(t, clk, spec.policy, s.devs)
	if err != nil {
		return nil, err
	}
	pm := device.PMProfile("pmem0")
	pm.Capacity = spec.pmBytes
	ssd := device.SSDProfile("ssd0")
	hdd := device.HDDProfile("hdd0")
	hdd.Capacity = hddBytes
	s.devs["pm"] = device.New(pm, clk)
	s.devs["ssd"] = device.New(ssd, clk)
	s.devs["hdd"] = device.New(hdd, clk)

	nova, err := novafs.New("nova@pmem0", s.devs["pm"], novafs.DefaultCosts())
	if err != nil {
		return nil, err
	}
	xfs, err := xfslite.New("xfs@ssd0", s.devs["ssd"])
	if err != nil {
		return nil, err
	}
	ext, err := extlite.New("ext4@hdd0", s.devs["hdd"])
	if err != nil {
		return nil, err
	}
	m.AddTier(t.wrapFS(lPM, nova), pm)
	m.AddTier(t.wrapFS(lSSD, xfs), ssd)
	m.AddTier(t.wrapFS(lHDD, ext), hdd)
	s.spaceFS = []vfs.FileSystem{nova, xfs, ext}
	s.caches["ssd"], s.caches["hdd"] = xfs, ext
	s.mux = m
	s.muxFS = t.wrapFS(lCore, m)
	return s, nil
}

// serve puts the namespace front end (server.Server on loopback) in
// front of the stack's Mux.
func (s *stack) serve(t *tracer) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.New(t.wrapFS(lCore, s.mux), server.Options{})
	s.addr = l.Addr().String()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.srv.Serve(l)
	}()
	s.closers = append(s.closers, func() {
		l.Close()
		<-done
		s.srv.Drain(time.Second)
		s.srv.Close()
	})
	return nil
}

// dial opens one NSClient connection to the namespace server.
func (s *stack) dial(t *tracer) (vfs.FileSystem, error) {
	c, err := muxrpc.NSDial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { c.Close() })
	return t.wrapFS(lFrontend, c), nil
}

// stripeSpec sizes the PM + erasure-coded stripe Mux.
type stripeSpec struct {
	pmBytes    int64
	parity     int
	nodes      int
	coldPrefix string // paths placed on the stripe tier
}

// buildStripe assembles a Mux over a PM tier and a Reed–Solomon StripeSet
// whose nodes are in-process muxrpc tier servers on loopback, each
// serving xfslite on its own SSD device.
func buildStripe(t *tracer, spec stripeSpec) (*stack, error) {
	clk := simclock.New()
	s := &stack{clk: clk, devs: map[string]*device.Device{}, caches: map[string]*blockfs.FS{}}
	stripeID := -1
	pol := policy.Func{PolicyName: "coldprefix",
		Place: func(ctx policy.WriteCtx, tiers []policy.TierInfo) int {
			if strings.HasPrefix(ctx.Path, spec.coldPrefix) {
				return stripeID
			}
			return tiers[0].ID
		}}
	m, err := newMux(t, clk, pol, s.devs)
	if err != nil {
		return nil, err
	}
	s.mux = m
	pm := device.PMProfile("pmem0")
	pm.Capacity = spec.pmBytes
	s.devs["pm"] = device.New(pm, clk)
	nova, err := novafs.New("nova@pmem0", s.devs["pm"], novafs.DefaultCosts())
	if err != nil {
		return nil, err
	}
	m.AddTier(t.wrapFS(lPM, nova), pm)
	s.spaceFS = []vfs.FileSystem{nova}

	nodes := make([]vfs.FileSystem, spec.nodes)
	for i := range nodes {
		name := fmt.Sprintf("node%d", i)
		dev := device.New(device.SSDProfile(name), clk)
		fs, err := xfslite.New("xfs@"+name, dev)
		if err != nil {
			s.close()
			return nil, err
		}
		s.devs[name] = dev
		s.spaceFS = append(s.spaceFS, fs)
		s.nodes = append(s.nodes, fs)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		srv := muxrpc.NewServer(fs)
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(l)
		}()
		s.closers = append(s.closers, func() {
			l.Close()
			<-done
			srv.Drain(time.Second)
		})
		c, err := muxrpc.DialPool("tcp", l.Addr().String(), 1)
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, func() { c.Close() })
		nodes[i] = t.wrapFS(lNode0+layer(i), c)
	}
	set, err := ec.New("stripe0", nodes, ec.Options{Parity: spec.parity, NodeFanout: 1})
	if err != nil {
		s.close()
		return nil, err
	}
	// The tier profile AddRemoteStripeTier derives: SSD-class nodes whose
	// bandwidth and capacity scale with the data-node count.
	k := int64(spec.nodes - spec.parity)
	prof := device.SSDProfile("stripe0")
	prof.Name = set.Name()
	prof.ReadBandwidth *= k
	prof.WriteBandwidth *= k
	prof.Capacity *= k
	stripeID = m.AddTier(t.wrapFS(lStripe, set), prof)
	s.muxFS = t.wrapFS(lCore, m)
	return s, nil
}

// crash runs Sync → Crash → Recover over the whole stack: Mux and its
// tiers, the stripe nodes, then the recovery scrub.
func (s *stack) crashRecover() error {
	if err := s.mux.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	s.mux.Crash()
	for _, n := range s.nodes {
		n.Crash()
	}
	var errs []error
	for _, n := range s.nodes {
		errs = append(errs, n.Recover())
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("node recover: %w", err)
	}
	if err := s.mux.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if _, err := s.mux.ScrubOrphans(true); err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	return nil
}

// spaceUsed sums Statfs().Used over the native file systems.
func (s *stack) spaceUsed() (int64, error) {
	var used int64
	for _, fs := range s.spaceFS {
		st, err := fs.Statfs()
		if err != nil {
			return 0, err
		}
		used += st.Used
	}
	return used, nil
}
