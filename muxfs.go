// Package muxfs is the public API of the Mux tiered file system — a Go
// reproduction of "Rethinking Tiered Storage: Talk to File Systems, Not
// Device Drivers" (HotOS '25).
//
// Mux aggregates device-specific file systems (NOVA-like on persistent
// memory, XFS-like on SSD, Ext4-like on HDD — all implemented in this
// module over simulated devices) into a single tiered file system. Tiering
// policies decide data placement; an optimistic-concurrency migration
// engine moves blocks between tiers without locking out user I/O; metadata
// is tracked per-attribute by its "affinitive" file system.
//
// Quick start:
//
//	sys, err := muxfs.New(muxfs.Config{
//		Tiers: []muxfs.TierSpec{
//			{Kind: muxfs.PM, Name: "pmem0"},
//			{Kind: muxfs.SSD, Name: "ssd0"},
//			{Kind: muxfs.HDD, Name: "hdd0"},
//		},
//		Policy: muxfs.NewLRUPolicy(),
//	})
//	f, err := sys.FS.Create("/data/log")
//	f.WriteAt([]byte("hello tiers"), 0)
//	sys.FS.Migrate("/data/log", sys.TierID("pmem0"), sys.TierID("hdd0"))
package muxfs

import (
	"fmt"
	"net"
	"time"

	"muxfs/internal/core"
	"muxfs/internal/device"
	"muxfs/internal/ec"
	"muxfs/internal/fs/extlite"
	"muxfs/internal/fs/novafs"
	"muxfs/internal/fs/xfslite"
	"muxfs/internal/muxrpc"
	"muxfs/internal/policy"
	"muxfs/internal/server"
	"muxfs/internal/simclock"
	"muxfs/internal/vfs"
)

// DeviceKind selects a simulated device class and its matching native file
// system.
type DeviceKind int

const (
	// PM is persistent memory, served by the NOVA-like novafs.
	PM DeviceKind = iota
	// SSD is a low-latency flash device, served by the XFS-like xfslite.
	SSD
	// HDD is a rotational disk, served by the Ext4-like extlite.
	HDD
)

// TierSpec describes one tier to assemble: a device plus its native FS.
type TierSpec struct {
	Kind DeviceKind
	// Name labels the device (e.g. "pmem0"); it must be unique.
	Name string
	// Capacity overrides the class default when > 0.
	Capacity int64
}

// Config assembles a complete Mux system.
type Config struct {
	// Name labels the Mux instance (default "mux").
	Name string
	// Tiers lists the devices/file systems to register, any number ≥ 1.
	Tiers []TierSpec
	// Policy is the tiering policy (default: the paper's LRU policy).
	Policy Policy
	// MetaJournal, when true, persists Mux's own metadata (block lookup
	// table, affinity) on a dedicated PM meta device, enabling crash
	// recovery of the Mux layer itself.
	MetaJournal bool
	// SCMCacheBytes, when > 0, enables the SCM cache (§2.5) of this size on
	// the fastest PM tier.
	SCMCacheBytes int64
	// MigrationWorkers sizes the parallel migration engine's worker pool:
	// the Policy Runner copies up to this many planned moves concurrently
	// (one move per file at a time, throttled per tier). 0 defaults to
	// runtime.GOMAXPROCS; 1 copies serially.
	MigrationWorkers int
	// Clock supplies the virtual clock; one is created when nil.
	Clock *simclock.Clock
	// DisableTelemetry turns off runtime telemetry recording (on by
	// default; see Mux.Telemetry and Mux.MetricsHandler). Recording is
	// wall-clock only and cheap enough to leave on — E9 gates its overhead.
	DisableTelemetry bool
	// MirrorReadRouting enables the mirror read router: reads of replicated
	// files are dispatched to whichever copy — primary or mirror — scores
	// cheaper on device profile, recent observed latency, and in-flight
	// depth. Off by default (mirrors then serve only as error fallback); can
	// also be toggled at runtime via Mux.SetMirrorRouting.
	MirrorReadRouting bool
}

// TierHandle exposes an assembled tier.
type TierHandle struct {
	ID     int
	Spec   TierSpec
	Device *device.Device
	FS     FileSystem
}

// System is an assembled Mux stack: the tiered file system plus handles to
// the devices and native file systems underneath (exposed for inspection,
// benchmarks, and direct native access).
type System struct {
	FS      *Mux
	Clock   *simclock.Clock
	Tiers   []TierHandle
	MetaDev *device.Device // nil unless Config.MetaJournal
}

// New builds devices, mounts the matching native file system on each, and
// registers them with a fresh Mux.
func New(cfg Config) (*System, error) {
	if len(cfg.Tiers) == 0 {
		return nil, fmt.Errorf("muxfs: config needs at least one tier")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = simclock.New()
	}
	sys := &System{Clock: clk}

	mcfg := core.Config{
		Name:              cfg.Name,
		Clock:             clk,
		Policy:            cfg.Policy,
		MigrationWorkers:  cfg.MigrationWorkers,
		DisableTelemetry:  cfg.DisableTelemetry,
		MirrorReadRouting: cfg.MirrorReadRouting,
	}
	if cfg.MetaJournal {
		prof := device.PMProfile("muxmeta")
		prof.Capacity = 32 << 20
		sys.MetaDev = device.New(prof, clk)
		mcfg.MetaDevice = sys.MetaDev
	}
	m, err := core.New(mcfg)
	if err != nil {
		return nil, err
	}
	// Remote and stripe tiers dial through muxrpc: export its package-wide
	// dial counters, which also cover clients that never came up.
	m.TelemetryRegistry().Register(muxrpc.CollectTotals)

	for _, spec := range cfg.Tiers {
		var prof device.Profile
		switch spec.Kind {
		case PM:
			prof = device.PMProfile(spec.Name)
		case SSD:
			prof = device.SSDProfile(spec.Name)
		case HDD:
			prof = device.HDDProfile(spec.Name)
		default:
			return nil, fmt.Errorf("muxfs: unknown device kind %d", spec.Kind)
		}
		if spec.Capacity > 0 {
			prof.Capacity = spec.Capacity
		}
		dev := device.New(prof, clk)

		var fs vfs.FileSystem
		switch spec.Kind {
		case PM:
			fs, err = novafs.New("nova@"+spec.Name, dev, novafs.DefaultCosts())
		case SSD:
			fs, err = xfslite.New("xfs@"+spec.Name, dev)
		case HDD:
			fs, err = extlite.New("ext4@"+spec.Name, dev)
		}
		if err != nil {
			return nil, fmt.Errorf("muxfs: mounting tier %s: %w", spec.Name, err)
		}
		id := m.AddTier(fs, prof)
		sys.Tiers = append(sys.Tiers, TierHandle{ID: id, Spec: spec, Device: dev, FS: fs})
	}
	sys.FS = m

	if cfg.SCMCacheBytes > 0 {
		scmTier := -1
		for _, t := range sys.Tiers {
			if t.Spec.Kind == PM {
				scmTier = t.ID
				break
			}
		}
		if scmTier < 0 {
			return nil, fmt.Errorf("muxfs: SCM cache requires a PM tier")
		}
		if err := m.EnableSCMCache(scmTier, cfg.SCMCacheBytes); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// AddRemoteTier dials a muxd tier export (or any NamespaceServer) and
// registers the remote file system as a tier — Distributed Mux (paper §4).
// kind declares the remote device class so policies can reason about its
// speed; netLat is added to the profile's access latencies to model the
// network hop.
func (s *System) AddRemoteTier(network, addr string, kind DeviceKind, netLat time.Duration) (int, error) {
	client, err := muxrpc.Dial(network, addr)
	if err != nil {
		return -1, fmt.Errorf("muxfs: dialing remote tier: %w", err)
	}
	var prof device.Profile
	switch kind {
	case PM:
		prof = device.PMProfile("remote")
	case SSD:
		prof = device.SSDProfile("remote")
	case HDD:
		prof = device.HDDProfile("remote")
	default:
		return -1, fmt.Errorf("muxfs: unknown device kind %d", kind)
	}
	prof.Name = "remote:" + addr
	prof.ReadLatency += netLat
	prof.WriteLatency += netLat
	id := s.FS.AddTier(client, prof)
	s.Tiers = append(s.Tiers, TierHandle{ID: id, Spec: TierSpec{Kind: kind, Name: prof.Name}, FS: client})
	return id, nil
}

// NamespaceServer is the network front end and the server half of
// Distributed Mux: it serves one file system — a whole Mux namespace, or
// a native file system exported as a remote tier or stripe node — to
// many concurrent clients over the muxns protocol, with a bounded worker
// pool, per-client fairness, an attr/readdir cache, and wire-level
// batching. See internal/server for the design. Its lifecycle: go
// Serve(l); on shutdown close l, then Drain(timeout), which stops it.
type NamespaceServer = server.Server

// NewTierServer wraps fs in a server that exports it as a remote tier or
// stripe node, with the attr cache off because the file system may change
// underneath the export. The caller owns its shutdown; the
// fire-and-forget form is ServeTier.
func NewTierServer(fs FileSystem) *NamespaceServer {
	return muxrpc.NewServer(fs)
}

// ServeTier exposes a local file system as a remote tier on l, blocking
// until the listener closes, then shuts the server down, severing its
// connections. Most callers use cmd/muxd instead; callers that need a
// graceful drain use NewTierServer.
func ServeTier(l net.Listener, fs FileSystem) error {
	srv := muxrpc.NewServer(fs)
	defer srv.Close()
	return srv.Serve(l)
}

// ServerOptions tunes the namespace front end; zero values pick the
// defaults documented on internal/server.Options.
type ServerOptions = server.Options

// ServerStats is a point-in-time snapshot of the namespace front end's
// counters, also exported on /metrics as the mux_server_* families.
type ServerStats = server.Stats

// NewServer builds a namespace front end over this System's Mux on the
// System's telemetry registry, so /metrics (and TelemetrySnapshot.Families)
// carry its mux_server_* families until it drains. The caller owns the
// lifecycle: go srv.Serve(l), then close l and srv.Drain(timeout) on
// shutdown.
func (s *System) NewServer(opts ServerOptions) *NamespaceServer {
	if opts.Registry == nil {
		opts.Registry = s.FS.TelemetryRegistry()
	}
	return server.New(s.FS, opts)
}

// NamespaceClient is a pooled client for a NamespaceServer; it
// implements FileSystem, so a remote Mux namespace mounts anywhere a
// local one does.
type NamespaceClient = muxrpc.NSClient

// DialNamespace connects to a muxd -serve namespace front end.
func DialNamespace(network, addr string) (*NamespaceClient, error) {
	return muxrpc.NSDial(network, addr)
}

// StripeTierSpec assembles a scale-out capacity tier: one composite tier
// striped across several muxd nodes with Reed–Solomon parity, registered
// with Mux as a single tier whose aggregate bandwidth scales with the
// data-node count.
type StripeTierSpec struct {
	// Addrs lists the muxd node addresses. The first len(Addrs)-Parity
	// are data nodes, the rest hold parity.
	Addrs []string
	// Network is the dial network (default "tcp").
	Network string
	// Parity is the number of parity nodes M (0 = pure striping).
	Parity int
	// ShardSize is the stripe shard size (default ec.DefaultShardSize).
	ShardSize int64
	// Kind declares the remote nodes' device class for cost modeling
	// (default SSD).
	Kind DeviceKind
	// NetLat is added to the profile latencies to model the network hop.
	NetLat time.Duration
	// PoolSize is the per-node RPC connection pool width; 0 defaults to
	// the data-fanout width (the number of data nodes), so a full-stripe
	// operation never queues on connections.
	PoolSize int
	// Name labels the set (default "stripe0").
	Name string
}

// AddRemoteStripeTier dials every node of spec, assembles the erasure-
// coded StripeSet over them, and registers it as one tier. The returned
// set handle exposes degraded-mode controls (Quarantine, ReplaceNode,
// Rebuild, Scrub, Status); its counters and per-node latencies land on
// this System's /metrics surface.
func (s *System) AddRemoteStripeTier(spec StripeTierSpec) (int, *StripeSet, error) {
	if len(spec.Addrs) == 0 {
		return -1, nil, fmt.Errorf("muxfs: stripe tier needs at least one node")
	}
	network := spec.Network
	if network == "" {
		network = "tcp"
	}
	name := spec.Name
	if name == "" {
		name = "stripe0"
	}
	k := len(spec.Addrs) - spec.Parity
	if k < 1 {
		return -1, nil, fmt.Errorf("muxfs: %d nodes cannot carry %d parity", len(spec.Addrs), spec.Parity)
	}
	pool := spec.PoolSize
	if pool <= 0 {
		pool = k
	}
	nodes := make([]vfs.FileSystem, 0, len(spec.Addrs))
	clients := make([]*muxrpc.NSClient, 0, len(spec.Addrs))
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for _, addr := range spec.Addrs {
		c, err := muxrpc.DialPool(network, addr, pool)
		if err != nil {
			closeAll()
			return -1, nil, fmt.Errorf("muxfs: dialing stripe node %s: %w", addr, err)
		}
		clients = append(clients, c)
		nodes = append(nodes, c)
	}
	ss, err := ec.New(name, nodes, ec.Options{
		Parity:     spec.Parity,
		ShardSize:  spec.ShardSize,
		NodeFanout: pool,
		Telemetry:  s.FS.TelemetryRegistry(),
	})
	if err != nil {
		closeAll()
		return -1, nil, err
	}

	var prof device.Profile
	switch spec.Kind {
	case PM:
		prof = device.PMProfile(name)
	case HDD:
		prof = device.HDDProfile(name)
	default:
		prof = device.SSDProfile(name)
	}
	prof.Name = ss.Name()
	prof.ReadLatency += spec.NetLat
	prof.WriteLatency += spec.NetLat
	// Aggregate bandwidth scales with the data-node count; so does the
	// capacity policies budget against.
	prof.ReadBandwidth *= int64(k)
	prof.WriteBandwidth *= int64(k)
	prof.Capacity *= int64(k)
	id := s.FS.AddTier(ss, prof)
	s.Tiers = append(s.Tiers, TierHandle{ID: id, Spec: TierSpec{Kind: spec.Kind, Name: prof.Name}, FS: ss})
	return id, ss, nil
}

// TierID resolves a device name to its tier id (-1 when unknown).
func (s *System) TierID(deviceName string) int {
	for _, t := range s.Tiers {
		if t.Spec.Name == deviceName {
			return t.ID
		}
	}
	return -1
}

// Policy constructors, re-exported so applications don't import internals.

// NewLRUPolicy returns the paper's §3 policy: fastest-tier placement, cold
// eviction downward, promotion on access.
func NewLRUPolicy() Policy { return policy.DefaultLRU() }

// NewTPFSPolicy returns the TPFS-like size/synchronicity placement policy.
func NewTPFSPolicy() Policy { return policy.DefaultTPFS() }

// NewHotColdPolicy returns the heat-classification policy.
func NewHotColdPolicy() Policy { return policy.DefaultHotCold() }

// NewPinnedPolicy returns a policy that places everything on one tier.
func NewPinnedPolicy(tier int) Policy { return policy.Pinned{Tier: tier} }

// NewFuncPolicy registers plain functions as a policy — the paper's
// "user-defined policy" extension point (§2.1).
func NewFuncPolicy(name string, place func(WriteCtx, []TierInfo) int,
	plan func([]TierInfo, []FileStat, TimeStamp) []Move) Policy {
	return policy.Func{PolicyName: name, Place: place, Plan: plan}
}
