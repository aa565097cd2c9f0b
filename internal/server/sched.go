// Package server is the production network front end: it serves a whole
// Mux namespace (any vfs.FileSystem) over the muxns wire protocol to many
// concurrent clients. Three mechanisms keep thousands of connections from
// trampling each other or the file system underneath:
//
//   - A bounded worker pool fed by an admission-controlled queue. Requests
//     past the high watermark are rejected with a busy reply and a
//     retry-after hint — the server never spawns a goroutine per request,
//     so a connection storm cannot exhaust memory.
//   - Per-client token buckets plus deficit-round-robin dispatch. A
//     client's cost is charged in units of request count and payload
//     bytes, so one aggressor streaming huge batches cannot starve
//     well-behaved neighbors.
//   - A server-side attribute/readdir cache with negative entries, so
//     metadata-heavy workloads (stat storms, ls loops) short-circuit
//     before touching the Mux.
//
// The same server exports a single native file system as a remote tier or
// stripe node (muxrpc.NewServer: the attr cache off, since the file
// system may change underneath the export). The wire protocol is
// internal/muxns and the client is internal/muxrpc; cmd/muxd hosts the
// server.
package server

import (
	"sync"
	"time"
)

// costUnitBytes is the payload size worth one extra cost unit: every
// request costs 1 + payload/costUnitBytes units, so a 1MiB write costs ~33
// units while a stat costs 1. Token buckets and DRR deficits both operate
// on cost units, which keeps giant batches from hiding behind a per-frame
// budget.
const costUnitBytes = 32 * 1024

// drrQuantum is the deficit added per round-robin visit, in cost units
// (about 1MiB of payload per turn).
const drrQuantum = 32

// clientQ is one client's FIFO plus its fairness state. A client is one
// connection; the queue lives as long as the connection.
type clientQ struct {
	q       []*task
	deficit int64
	active  bool // in the scheduler ring

	// Token bucket, charged in cost units at admission.
	tokens     float64
	lastRefill time.Time
}

// sched is the admission controller and deficit-round-robin dispatcher.
// All state is guarded by mu; workers block on cond until work arrives.
type sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*clientQ
	idx    int
	queued int
	closed bool

	maxQueue int
	rate     float64 // cost units per second per client; 0 = unlimited
	burst    float64 // bucket capacity in cost units
}

func newSched(maxQueue int, rate, burst float64) *sched {
	s := &sched{maxQueue: maxQueue, rate: rate, burst: burst}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// submit admits or rejects one task. A rejection returns the retry-after
// hint to send with the busy reply and whether the rejection came from the
// rate limiter (vs. queue overflow).
func (s *sched) submit(cq *clientQ, t *task) (retryAfter time.Duration, rateLimited, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false, false
	}
	if s.queued >= s.maxQueue {
		// Queue drains at worker speed; a couple of milliseconds is a
		// reasonable first backoff for a loopback/LAN client.
		return 2 * time.Millisecond, false, false
	}
	if s.rate > 0 {
		now := time.Now()
		if cq.lastRefill.IsZero() {
			cq.tokens = s.burst
		} else {
			cq.tokens += now.Sub(cq.lastRefill).Seconds() * s.rate
			if cq.tokens > s.burst {
				cq.tokens = s.burst
			}
		}
		cq.lastRefill = now
		if cq.tokens < float64(t.cost) {
			need := (float64(t.cost) - cq.tokens) / s.rate
			return time.Duration(need * float64(time.Second)), true, false
		}
		cq.tokens -= float64(t.cost)
	}
	cq.q = append(cq.q, t)
	s.queued++
	if !cq.active {
		cq.active = true
		s.ring = append(s.ring, cq)
	}
	s.cond.Signal()
	return 0, false, true
}

// next blocks until a task is dispatchable and returns it, or returns nil
// once the scheduler is closed and drained. Dispatch order is deficit
// round-robin over clients with queued work: each visit grants a quantum
// of cost units; a client whose head op costs more than its deficit waits
// for later turns, so cheap ops from other clients overtake expensive
// streams.
func (s *sched) next() *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.queued > 0 {
			if s.idx >= len(s.ring) {
				s.idx = 0
			}
			cq := s.ring[s.idx]
			head := cq.q[0]
			if cq.deficit < head.cost {
				cq.deficit += drrQuantum
				if cq.deficit < head.cost {
					s.idx++
					continue
				}
			}
			cq.deficit -= head.cost
			cq.q = cq.q[1:]
			s.queued--
			// Mark the owning connection busy under the scheduler lock:
			// dropClient also holds it, so a connection's teardown sees
			// either the queued task (and drops it) or the executing
			// count (and waits) — never neither.
			head.c.executing.Add(1)
			if len(cq.q) == 0 {
				cq.active = false
				cq.deficit = 0
				s.ring = append(s.ring[:s.idx], s.ring[s.idx+1:]...)
			}
			return head
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// dropClient removes a dead connection's queued tasks (their replies have
// nowhere to go) and returns how many were dropped.
func (s *sched) dropClient(cq *clientQ) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cq.active {
		for i, x := range s.ring {
			if x == cq {
				s.ring = append(s.ring[:i], s.ring[i+1:]...)
				if s.idx > i {
					s.idx--
				}
				break
			}
		}
		cq.active = false
	}
	n := len(cq.q)
	cq.q = nil
	s.queued -= n
	return n
}

// depth reports the number of queued (admitted, not yet executing) tasks.
func (s *sched) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// close wakes every worker; next returns nil once the queue drains.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}
