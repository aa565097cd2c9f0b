// Distributed Mux (paper §4): a remote machine's file system — served over
// the muxns protocol, the same one a muxd -serve namespace speaks —
// registers with a local Mux as one more tier. Data then migrates to and
// from the remote exactly like any local tier.
//
// Act two scales that out: four in-process muxd nodes combine into ONE
// erasure-coded tier (3 data + 1 parity, see System.AddRemoteStripeTier).
// File bytes stripe across the data nodes, so the tier's bandwidth and
// capacity grow with node count; when a node dies mid-read, the missing
// shards are reconstructed from parity with no user-visible error, and a
// rebuild restores full redundancy onto the revived node.
//
// This example runs every "remote" server in-process on loopback sockets;
// in a real deployment they would be cmd/muxd (or muxd -nodes 4) on other
// machines.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"muxfs"
)

func main() {
	// --- The "remote" machine: an SSD-backed file system behind muxd. ---
	remote, err := muxfs.New(muxfs.Config{
		Name:   "remote-node",
		Tiers:  []muxfs.TierSpec{{Kind: muxfs.SSD, Name: "remote-ssd"}},
		Policy: muxfs.NewPinnedPolicy(0),
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go func() {
		if err := muxfs.ServeTier(l, remote.Tiers[0].FS); err != nil {
			log.Printf("tier server: %v", err)
		}
	}()
	fmt.Printf("remote tier serving on %s\n", l.Addr())

	// --- The local machine: PM + local SSD, plus the remote tier. ---
	sys, err := muxfs.New(muxfs.Config{
		Tiers: []muxfs.TierSpec{
			{Kind: muxfs.PM, Name: "pmem0"},
			{Kind: muxfs.SSD, Name: "ssd0"},
		},
		Policy: muxfs.NewPinnedPolicy(0),
	})
	if err != nil {
		log.Fatal(err)
	}
	remoteID, err := sys.AddRemoteTier("tcp", l.Addr().String(), muxfs.SSD, 200*time.Microsecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered remote tier id=%d\n", remoteID)

	// Write locally, then demote to the remote tier.
	fs := sys.FS
	f, err := fs.Create("/dataset.bin")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	payload := make([]byte, 2<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		log.Fatal(err)
	}

	pm := sys.TierID("pmem0")
	moved, err := fs.Migrate("/dataset.bin", pm, remoteID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrated %d MiB to the remote tier over RPC\n", moved>>20)

	// Read back through Mux: blocks are fetched from the remote machine.
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		log.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			log.Fatalf("byte %d mismatch after round trip", i)
		}
	}
	fmt.Println("verified: contents intact across the network round trip")

	// The remote node really holds the data.
	fi, err := remote.Tiers[0].FS.Stat("/dataset.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote node holds %d MiB of /dataset.bin\n", fi.Blocks>>20)

	// And promotion brings it home just as easily.
	back, err := fs.Migrate("/dataset.bin", remoteID, pm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promoted %d MiB back to local PM\n", back>>20)

	// --- Act two: four muxd nodes as ONE striped capacity tier. ---
	// Each node is an independent single-tier server (muxd -nodes 4 runs
	// this same fleet from the command line).
	const dataNodes, parityNodes = 3, 1
	type node struct {
		sys *muxfs.System
		l   net.Listener
	}
	nodes := make([]node, dataNodes+parityNodes)
	addrs := make([]string, len(nodes))
	for i := range nodes {
		nsys, err := muxfs.New(muxfs.Config{
			Name:   fmt.Sprintf("stripe-node%d", i),
			Tiers:  []muxfs.TierSpec{{Kind: muxfs.SSD, Name: fmt.Sprintf("node%d", i)}},
			Policy: muxfs.NewPinnedPolicy(0),
		})
		if err != nil {
			log.Fatal(err)
		}
		nl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer nl.Close()
		go muxfs.ServeTier(nl, nsys.Tiers[0].FS)
		nodes[i] = node{sys: nsys, l: nl}
		addrs[i] = nl.Addr().String()
	}
	stripeID, set, err := sys.AddRemoteStripeTier(muxfs.StripeTierSpec{
		Addrs:  addrs,
		Parity: parityNodes,
		Kind:   muxfs.SSD,
		NetLat: 200 * time.Microsecond,
		Name:   "capacity0",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstriped tier id=%d: %d data + %d parity nodes on loopback\n",
		stripeID, dataNodes, parityNodes)

	// Demote the dataset onto the striped tier: its bytes now stripe
	// across the data nodes, with parity on the fourth.
	if _, err := fs.Migrate("/dataset.bin", pm, stripeID); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < dataNodes; i++ {
		fi, err := nodes[i].sys.Tiers[0].FS.Stat("/dataset.bin")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  node %d holds %d KiB of shards\n", i, fi.Blocks>>10)
	}

	// Kill a data node (listener and sockets), then read the whole file:
	// its shards are reconstructed from parity, no error surfaces.
	nodes[1].l.Close()
	set.Quarantine(1)
	if _, err := f.ReadAt(got, 0); err != nil {
		log.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			log.Fatalf("byte %d mismatch during degraded read", i)
		}
	}
	st := set.Status()
	fmt.Printf("node 1 down: read intact via %d parity reconstructions (%d KiB rebuilt on the fly)\n",
		st.DegradedReads, st.ReconstructedBytes>>10)

	// Bring the node back on the same address and rebuild it from the
	// survivors: redundancy is restored and a parity scrub proves it.
	nl, err := net.Listen("tcp", addrs[1])
	if err != nil {
		log.Fatal(err)
	}
	defer nl.Close()
	go muxfs.ServeTier(nl, nodes[1].sys.Tiers[0].FS)
	set.Reinstate(1)
	rb, err := set.Rebuild(1)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := set.Scrub(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 1 rebuilt: %d files, %d KiB; scrub: %d stripes, %d mismatches\n",
		rb.Files, rb.Bytes>>10, sc.Stripes, sc.Mismatches)
}
