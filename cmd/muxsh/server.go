package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"muxfs"
)

// serverCtl is the shell's handle on an in-process namespace front end:
// the muxns server plus its listener, so the shell's Mux can be exported
// to real network clients (muxsh in another terminal, muxbench -exp e13,
// or anything speaking muxns) while the shell keeps driving it locally.
type serverCtl struct {
	srv *muxfs.NamespaceServer
	l   net.Listener
}

// server drives the namespace front end:
//
//	server up [addr]   export this shell's Mux over muxns (default loopback)
//	server [status]    front-end counters: queue, cache, batching, rejects
//	server down        drain in-flight calls, then stop
func (s *shell) server(rest []string) error {
	sub := "status"
	if len(rest) > 0 {
		sub = rest[0]
	}
	switch sub {
	case "up":
		if s.nssrv != nil {
			return errors.New("server already up (try 'server status')")
		}
		addr := "127.0.0.1:0"
		if len(rest) > 1 {
			addr = rest[1]
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		srv := s.sys.NewServer(muxfs.ServerOptions{})
		go srv.Serve(l)
		s.nssrv = &serverCtl{srv: srv, l: l}
		fmt.Fprintf(s.out, "serving namespace on %s (muxns)\n", l.Addr())
		return nil
	case "down":
		ctl, err := s.serverHandle()
		if err != nil {
			return err
		}
		ctl.l.Close()
		if cut := ctl.srv.Drain(5 * time.Second); cut != 0 {
			fmt.Fprintf(s.out, "drain timeout: cut %d in-flight calls\n", cut)
		}
		s.nssrv = nil
		fmt.Fprintln(s.out, "server down")
		return nil
	case "status":
		ctl, err := s.serverHandle()
		if err != nil {
			return err
		}
		st := ctl.srv.Stats()
		fmt.Fprintf(s.out, "namespace front end on %s\n", ctl.l.Addr())
		fmt.Fprintf(s.out, "  conns=%d (accepted %d)  workers=%d  queue=%d/%d  executing=%d\n",
			st.Conns, st.ConnsAccepted, st.Workers, st.QueueDepth, st.MaxQueue, st.Executing)
		fmt.Fprintf(s.out, "  requests=%d  rejected: queue=%d rate=%d invalid=%d frame=%d  handles=%d\n",
			st.Requests, st.RejectedQueue, st.RejectedRate, st.RejectedInvalid, st.RejectedFrame, st.HandlesOpen)
		fmt.Fprintf(s.out, "  bytes: read=%d written=%d\n", st.BytesRead, st.BytesWritten)
		total := st.CacheHits + st.CacheMisses
		rate := 0.0
		if total > 0 {
			rate = float64(st.CacheHits) / float64(total)
		}
		fmt.Fprintf(s.out, "  cache: hits=%d misses=%d neg-hits=%d evicts=%d entries=%d (hit rate %.1f%%)\n",
			st.CacheHits, st.CacheMisses, st.CacheNegHits, st.CacheEvicts, st.CacheEntries, 100*rate)
		fmt.Fprintf(s.out, "  batch: subops=%d dispatches=%d saved=%d\n",
			st.BatchSubOps, st.BatchDispatches, st.BatchSaved)
		return nil
	default:
		return errors.New("usage: server up [addr] | server [status] | server down")
	}
}

// clients lists every connection on the front end with its fairness
// state: queued and executing requests, open handles, and remaining
// token-bucket budget.
func (s *shell) clients() error {
	ctl, err := s.serverHandle()
	if err != nil {
		return err
	}
	cs := ctl.srv.Clients()
	if len(cs) == 0 {
		fmt.Fprintln(s.out, "no clients connected")
		return nil
	}
	fmt.Fprintf(s.out, "%-22s %8s %10s %8s %10s\n", "ADDR", "QUEUED", "EXECUTING", "HANDLES", "TOKENS")
	for _, c := range cs {
		fmt.Fprintf(s.out, "%-22s %8d %10d %8d %10.1f\n", c.Addr, c.Queued, c.Executing, c.Handles, c.Tokens)
	}
	return nil
}

func (s *shell) serverHandle() (*serverCtl, error) {
	if s.nssrv == nil {
		return nil, errors.New("no namespace server (run 'server up' first)")
	}
	return s.nssrv, nil
}
