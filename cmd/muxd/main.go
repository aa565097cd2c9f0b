// Command muxd serves Mux storage over the network. Every mode speaks the
// one muxns protocol through the same server; they differ in what is
// served:
//
//   - tier export (default): a single native file system served as a
//     remote Mux tier; a Mux on another machine attaches it with
//     System.AddRemoteTier. The server half of Distributed Mux (paper §4).
//   - -nodes N: a fleet of independent tier nodes on consecutive ports,
//     the backing store of a striped capacity tier
//     (System.AddRemoteStripeTier).
//   - -serve: the namespace front end — a whole three-tier Mux exported
//     to many concurrent clients, with a bounded worker pool, per-client
//     fairness, server-side attr/readdir caching, and wire-level batching
//     (tune with -workers, -queue, -rate).
//
// Usage:
//
//	muxd -addr :9321 -kind ssd -capacity 1073741824
//	muxd -addr :9321 -full -metrics :9322
//	muxd -addr :9321 -serve -workers 16 -queue 2048 -rate 4096
//
// With -metrics, muxd exposes the Mux telemetry surface over HTTP:
// GET /metrics (Prometheus text, ?format=json for the unified snapshot)
// and GET /debug/trace (recent slow/failed operations). In -serve mode
// the front end's mux_server_* families are part of both.
//
// SIGINT/SIGTERM shut down gracefully in every mode: listeners close
// first so no new work arrives, in-flight RPC calls drain (bounded by
// -drain-timeout), the policy runner stops, and Mux metadata takes a
// final journal flush.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"muxfs"
)

func main() {
	addr := flag.String("addr", ":9321", "listen address")
	kind := flag.String("kind", "ssd", "device kind to serve: pm, ssd, hdd")
	capacity := flag.Int64("capacity", 0, "device capacity in bytes (0 = class default)")
	full := flag.Bool("full", false, "serve a whole three-tier Mux as a single remote tier")
	serve := flag.Bool("serve", false, "serve the whole Mux namespace over the muxns front end (implies a full three-tier system)")
	metrics := flag.String("metrics", "", "HTTP listen address for /metrics and /debug/trace (empty = disabled)")
	policyEvery := flag.Duration("policy-interval", 2*time.Second, "policy runner interval in -full/-serve mode (0 = disabled)")
	nodes := flag.Int("nodes", 1, "serve N independent stripe nodes on consecutive ports starting at -addr (for a striped capacity tier; incompatible with -full/-serve)")
	workers := flag.Int("workers", 0, "-serve: worker pool width (0 = 2×GOMAXPROCS)")
	queueMax := flag.Int("queue", 0, "-serve: admission queue high watermark (0 = default 1024)")
	rate := flag.Float64("rate", 0, "-serve: per-client rate limit in cost units/s (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "max time to wait for in-flight RPC calls on shutdown")
	flag.Parse()

	var dk muxfs.DeviceKind
	switch strings.ToLower(*kind) {
	case "pm":
		dk = muxfs.PM
	case "ssd":
		dk = muxfs.SSD
	case "hdd":
		dk = muxfs.HDD
	default:
		log.Fatalf("muxd: unknown kind %q (want pm, ssd, or hdd)", *kind)
	}

	if *nodes > 1 {
		if *full || *serve {
			log.Fatal("muxd: -nodes is mutually exclusive with -full and -serve")
		}
		serveNodes(*addr, *nodes, dk, *capacity, *drainTimeout)
		return
	}

	var sys *muxfs.System
	var served muxfs.FileSystem
	var err error
	if *full || *serve {
		// A whole tiered Mux: remote clients see the merged namespace
		// with tiering running on this node.
		sys, err = muxfs.New(muxfs.Config{
			Name: "muxd",
			Tiers: []muxfs.TierSpec{
				{Kind: muxfs.PM, Name: "pmem0"},
				{Kind: muxfs.SSD, Name: "ssd0"},
				{Kind: muxfs.HDD, Name: "hdd0"},
			},
			Policy:      muxfs.NewLRUPolicy(),
			MetaJournal: true,
		})
		if err != nil {
			log.Fatalf("muxd: %v", err)
		}
		served = sys.FS
	} else {
		// A single-tier system gives us a device + matching native FS.
		sys, err = muxfs.New(muxfs.Config{
			Name:   "muxd",
			Tiers:  []muxfs.TierSpec{{Kind: dk, Name: "served0", Capacity: *capacity}},
			Policy: muxfs.NewPinnedPolicy(0),
		})
		if err != nil {
			log.Fatalf("muxd: %v", err)
		}
		served = sys.Tiers[0].FS
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("muxd: %v", err)
	}

	// Background tiering daemon: with a full system the policy runner
	// migrates on a wall-clock cadence; shutdown stops it and waits for the
	// in-flight round to drain before the final flush.
	var runnerWG sync.WaitGroup
	policyStop := make(chan struct{})
	if (*full || *serve) && *policyEvery > 0 {
		runnerWG.Add(1)
		go func() {
			defer runnerWG.Done()
			sys.FS.PolicyRunner(*policyEvery, policyStop)
		}()
	}

	// Telemetry endpoint: /metrics (Prometheus text; ?format=json for the
	// unified snapshot) and /debug/trace.
	var metricsSrv *http.Server
	if *metrics != "" {
		ml, merr := net.Listen("tcp", *metrics)
		if merr != nil {
			log.Fatalf("muxd: metrics listener: %v", merr)
		}
		metricsSrv = &http.Server{Handler: sys.FS.MetricsHandler()}
		go func() {
			if serr := metricsSrv.Serve(ml); serr != nil && serr != http.ErrServerClosed {
				log.Printf("muxd: metrics server: %v", serr)
			}
		}()
		fmt.Printf("muxd: telemetry on http://%s/metrics\n", ml.Addr())
	}

	// Graceful shutdown: close the RPC listener first (Serve returns nil on
	// net.ErrClosed) so no new connections arrive, then drain in-flight
	// calls before severing what remains.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Printf("muxd: %v: shutting down\n", sig)
		l.Close()
	}()

	var srv *muxfs.NamespaceServer
	if *serve {
		srv = sys.NewServer(muxfs.ServerOptions{
			Workers:       *workers,
			MaxQueue:      *queueMax,
			RatePerClient: *rate,
		})
		fmt.Printf("muxd: serving namespace %s on %s\n", served.Name(), l.Addr())
	} else {
		srv = muxfs.NewTierServer(served)
		fmt.Printf("muxd: serving %s (%s) on %s\n", served.Name(), *kind, l.Addr())
	}
	if err := srv.Serve(l); err != nil {
		log.Fatalf("muxd: %v", err)
	}
	if cut := srv.Drain(*drainTimeout); cut != 0 {
		log.Printf("muxd: drain timeout: cut %d in-flight calls", cut)
	}

	close(policyStop)
	runnerWG.Wait()
	if err := sys.FS.Sync(); err != nil {
		log.Printf("muxd: final flush: %v", err)
	}
	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		metricsSrv.Shutdown(ctx)
		cancel()
	}
	fmt.Println("muxd: bye")
}

// serveNodes runs N independent single-tier nodes on consecutive ports —
// the server fleet of a striped capacity tier, in one process. Each node
// gets its own device + native FS, so they fail (and are killed)
// independently; attach them with System.AddRemoteStripeTier.
func serveNodes(baseAddr string, n int, dk muxfs.DeviceKind, capacity int64, drainTimeout time.Duration) {
	host, portStr, err := net.SplitHostPort(baseAddr)
	if err != nil {
		log.Fatalf("muxd: -nodes needs host:port in -addr: %v", err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatalf("muxd: -nodes needs a numeric port: %v", err)
	}

	listeners := make([]net.Listener, n)
	systems := make([]*muxfs.System, n)
	servers := make([]*muxfs.NamespaceServer, n)
	for i := 0; i < n; i++ {
		sys, err := muxfs.New(muxfs.Config{
			Name:   fmt.Sprintf("muxd-node%d", i),
			Tiers:  []muxfs.TierSpec{{Kind: dk, Name: fmt.Sprintf("node%d", i), Capacity: capacity}},
			Policy: muxfs.NewPinnedPolicy(0),
		})
		if err != nil {
			log.Fatalf("muxd: node %d: %v", i, err)
		}
		systems[i] = sys
		servers[i] = muxfs.NewTierServer(sys.Tiers[0].FS)
		nodeAddr := net.JoinHostPort(host, strconv.Itoa(basePort+i))
		l, err := net.Listen("tcp", nodeAddr)
		if err != nil {
			log.Fatalf("muxd: node %d listen %s: %v", i, nodeAddr, err)
		}
		listeners[i] = l
		fmt.Printf("muxd: node %d serving %s on %s\n", i, sys.Tiers[0].FS.Name(), l.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Printf("muxd: %v: shutting down %d nodes\n", sig, n)
		for _, l := range listeners {
			l.Close()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := servers[i].Serve(listeners[i]); err != nil {
				log.Printf("muxd: node %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	// Every listener is closed; drain the fleet in parallel so a slow call
	// on one node does not serialize the whole shutdown.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cut := servers[i].Drain(drainTimeout); cut != 0 {
				log.Printf("muxd: node %d drain timeout: cut %d in-flight calls", i, cut)
			}
		}(i)
	}
	wg.Wait()
	for i, sys := range systems {
		if err := sys.FS.Sync(); err != nil {
			log.Printf("muxd: node %d final flush: %v", i, err)
		}
	}
	fmt.Println("muxd: bye")
}
