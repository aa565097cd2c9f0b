package main

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"

	"muxfs"
)

// stripeCtl is the shell's handle on one striped capacity tier: the set
// plus the in-process node servers, so nodes can be killed and revived
// like real machines (the listener and its sockets actually close; the
// client reconnects through its pool).
type stripeCtl struct {
	tierID int
	set    *muxfs.StripeSet
	nodes  []*stripeNode
}

type stripeNode struct {
	addr string
	fs   muxfs.FileSystem

	mu  sync.Mutex
	l   net.Listener // nil while the node is down
	srv *muxfs.NamespaceServer
}

// serve exports the node's file system as a tier on l. Callers hold mu
// or own the node exclusively.
func (n *stripeNode) serve(l net.Listener) {
	n.l, n.srv = l, muxfs.NewTierServer(n.fs)
	go n.srv.Serve(l)
}

// kill severs the node: the listener closes and the server shuts down,
// cutting every established connection.
func (n *stripeNode) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.l != nil {
		n.l.Close()
		n.srv.Close()
		n.l, n.srv = nil, nil
	}
}

// revive serves the node again on its old address.
func (n *stripeNode) revive() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.l != nil {
		return errors.New("node is already up")
	}
	l, err := net.Listen("tcp", n.addr)
	if err != nil {
		return err
	}
	n.serve(l)
	return nil
}

// stripe drives the striped capacity tier:
//
//	stripe up <k> <m>       start k+m in-process nodes, attach as one tier
//	stripe status           per-node health and set-wide counters
//	stripe kill <i>         sever node i (listener + sockets)
//	stripe revive <i>       bring node i back on the same address
//	stripe rebuild <i>      reconstruct node i's shards from the survivors
//	stripe scrub [repair]   verify (optionally repair) parity
func (s *shell) stripe(rest []string) error {
	if len(rest) == 0 {
		return errors.New("usage: stripe up|status|kill|revive|rebuild|scrub ...")
	}
	switch rest[0] {
	case "up":
		if s.stripes != nil {
			return errors.New("stripe tier already up")
		}
		if len(rest) != 3 {
			return errors.New("usage: stripe up <data-nodes> <parity-nodes>")
		}
		k, err := strconv.Atoi(rest[1])
		if err != nil {
			return err
		}
		m, err := strconv.Atoi(rest[2])
		if err != nil {
			return err
		}
		return s.stripeUp(k, m)
	case "status":
		ctl, err := s.stripeHandle()
		if err != nil {
			return err
		}
		st := ctl.set.Status()
		fmt.Fprintf(s.out, "%s  shard=%d  degraded-reads=%d reconstructed=%dB rebuilds=%d rebuilt=%dB\n",
			st.Name, st.ShardSize, st.DegradedReads, st.ReconstructedBytes, st.Rebuilds, st.RebuildBytes)
		fmt.Fprintf(s.out, "%-5s %-7s %-22s %-12s %-6s %8s %8s %12s %12s\n",
			"node", "role", "addr", "state", "stale", "ops", "faults", "read", "written")
		for i, ns := range st.Nodes {
			up := "down"
			ctl.nodes[i].mu.Lock()
			if ctl.nodes[i].l != nil {
				up = ctl.nodes[i].addr
			}
			ctl.nodes[i].mu.Unlock()
			fmt.Fprintf(s.out, "%-5d %-7s %-22s %-12s %-6v %8d %8d %12d %12d\n",
				ns.Index, ns.Role, up, ns.State, ns.Stale, ns.Ops, ns.Faults, ns.BytesRead, ns.BytesWritten)
		}
		return nil
	case "kill":
		ctl, i, err := s.stripeNodeArg(rest)
		if err != nil {
			return err
		}
		ctl.nodes[i].kill()
		fmt.Fprintf(s.out, "node %d severed (listener and sockets closed)\n", i)
		return nil
	case "revive":
		ctl, i, err := s.stripeNodeArg(rest)
		if err != nil {
			return err
		}
		if err := ctl.nodes[i].revive(); err != nil {
			return err
		}
		ctl.set.Reinstate(i)
		fmt.Fprintf(s.out, "node %d back on %s (run 'stripe rebuild %d' if it missed writes)\n", i, ctl.nodes[i].addr, i)
		return nil
	case "rebuild":
		ctl, i, err := s.stripeNodeArg(rest)
		if err != nil {
			return err
		}
		st, err := ctl.set.Rebuild(i)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "rebuilt node %d: %d dirs, %d files, %d bytes\n", i, st.Dirs, st.Files, st.Bytes)
		return nil
	case "scrub":
		ctl, err := s.stripeHandle()
		if err != nil {
			return err
		}
		repair := len(rest) > 1 && rest[1] == "repair"
		st, err := ctl.set.Scrub(repair)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "scrubbed %d files, %d stripes: %d mismatches, %d repaired\n",
			st.Files, st.Stripes, st.Mismatches, st.Repaired)
		return nil
	default:
		return fmt.Errorf("unknown stripe subcommand %q", rest[0])
	}
}

func (s *shell) stripeHandle() (*stripeCtl, error) {
	if s.stripes == nil {
		return nil, errors.New("no stripe tier (run 'stripe up <k> <m>' first)")
	}
	return s.stripes, nil
}

func (s *shell) stripeNodeArg(rest []string) (*stripeCtl, int, error) {
	ctl, err := s.stripeHandle()
	if err != nil {
		return nil, 0, err
	}
	if len(rest) != 2 {
		return nil, 0, errors.New("usage: stripe " + rest[0] + " <node>")
	}
	i, err := strconv.Atoi(rest[1])
	if err != nil {
		return nil, 0, err
	}
	if i < 0 || i >= len(ctl.nodes) {
		return nil, 0, fmt.Errorf("node %d out of range (have %d)", i, len(ctl.nodes))
	}
	return ctl, i, nil
}

// stripeUp starts k+m single-tier node servers in-process on loopback and
// attaches them as one erasure-coded tier.
func (s *shell) stripeUp(k, m int) error {
	if k < 1 || m < 0 {
		return errors.New("need at least 1 data node and parity >= 0")
	}
	total := k + m
	nodes := make([]*stripeNode, 0, total)
	addrs := make([]string, 0, total)
	for i := 0; i < total; i++ {
		nsys, err := muxfs.New(muxfs.Config{
			Name:   fmt.Sprintf("stripe-node%d", i),
			Tiers:  []muxfs.TierSpec{{Kind: muxfs.SSD, Name: fmt.Sprintf("node%d", i)}},
			Policy: muxfs.NewPinnedPolicy(0),
		})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		n := &stripeNode{addr: l.Addr().String(), fs: nsys.Tiers[0].FS}
		n.serve(l)
		nodes = append(nodes, n)
		addrs = append(addrs, n.addr)
	}
	id, set, err := s.sys.AddRemoteStripeTier(muxfs.StripeTierSpec{
		Addrs:  addrs,
		Parity: m,
		Kind:   muxfs.SSD,
		Name:   "stripe0",
	})
	if err != nil {
		for _, n := range nodes {
			n.kill()
		}
		return err
	}
	s.stripes = &stripeCtl{tierID: id, set: set, nodes: nodes}
	fmt.Fprintf(s.out, "stripe tier up: tier id %d, %d data + %d parity nodes on loopback\n", id, k, m)
	return nil
}
