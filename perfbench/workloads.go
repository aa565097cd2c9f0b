package main

import (
	"fmt"

	"muxfs/internal/policy"
)

// workload is one named shape: its stack, its data files, and each
// client's op stream.
type workload struct {
	name string
	// clients drive the untraced run; a traced run uses one client so
	// that one request is in flight at a time. A workload of one client
	// runs no namespace server, so its count metrics repeat exactly for a
	// seed, traced or not.
	clients int
	// opsPerSec sizes a run: -seconds s makes the timed phase opsPerSec·s
	// ops, summed over clients. It is about what one second holds on a
	// 2-core host, so a run measures roughly s seconds there; the op
	// count, not the wall time, is fixed, so a seed fixes all the work.
	opsPerSec int
	// setups is how many set-ups setup_s takes the median of.
	setups int

	build func(t *tracer) (*stack, error)

	// The data files: files × blocks 4 KiB blocks under dir, split evenly
	// between the clients. Set-up writes the first filled files in full
	// (running a policy round after every roundEvery bytes when that is
	// not 0) and reads the last warm of those back.
	dir                         string
	files, blocks, filled, warm int
	roundEvery                  int64

	newGen func(seed int64, m *model) generator
}

const (
	churnFiles  = 4096 // × 64 KiB = 256 MiB namespace, 8× the PM tier
	churnFilled = 1024 // written at set-up: 64 MiB, 2× the PM tier
	churnBlocks = 16
	churnRecent = 128 // recency read window: 8 MiB
)

// models lays the data files out over clients: client c owns a
// contiguous share of them.
func (w *workload) models(clients int) []*model {
	ms := make([]*model, clients)
	per := w.files / clients
	for c := range ms {
		m := &model{id: c * per}
		for i := 0; i < per; i++ {
			m.files = append(m.files, &fileModel{
				path: fmt.Sprintf("%s/f%04d", w.dir, c*per+i),
				ver:  make([]uint32, w.blocks),
			})
		}
		ms[c] = m
	}
	return ms
}

func hotLocal() *workload {
	return &workload{
		name: "hot-local", clients: 1, opsPerSec: 250_000, setups: 7,
		build: func(t *tracer) (*stack, error) {
			return buildTiered(t, tieredSpec{pmBytes: 64 << 20, policy: policy.DefaultLRU()})
		},
		// 256 × 64 KiB = 16 MiB hot set.
		dir: "/hot", files: 256, blocks: 16, filled: 256, warm: 256,
		newGen: func(seed int64, m *model) generator {
			// 70% reads, 20% overwrites, 10% stats.
			return newHotGen(seed, m, mix{read: 0.70, write: 0.90})
		},
	}
}

func remoteNS() *workload {
	w := hotLocal()
	w.name, w.clients, w.opsPerSec = "remote-ns", 2, 28_000
	build := w.build
	w.build = func(t *tracer) (*stack, error) {
		s, err := build(t)
		if err != nil {
			return nil, err
		}
		if err := s.serve(t); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	return w
}

func tierChurn() *workload {
	return &workload{
		name: "tier-churn", clients: 1, opsPerSec: 7_000, setups: 3,
		build: func(t *tracer) (*stack, error) {
			return buildTiered(t, tieredSpec{pmBytes: 32 << 20, policy: policy.DefaultLRU()})
		},
		dir: "/churn", files: churnFiles, blocks: churnBlocks, filled: churnFilled, warm: churnRecent,
		roundEvery: 4 << 20,
		newGen: func(seed int64, m *model) generator {
			head := churnFilled * len(m.files) / churnFiles * churnBlocks
			// 60% reads, 37% appends, 3% stats.
			return newChurnGen(seed, m, mix{read: 0.60, write: 0.97}, head, churnRecent)
		},
	}
}

func stripeCold() *workload {
	return &workload{
		name: "stripe-cold", clients: 1, opsPerSec: 1_250, setups: 3,
		build: func(t *tracer) (*stack, error) {
			return buildStripe(t, stripeSpec{pmBytes: 32 << 20, nodes: 3, parity: 1, coldPrefix: "/cold/"})
		},
		// 96 × 1 MiB = 96 MiB cold set.
		dir: "/cold", files: 96, blocks: 256, filled: 96, warm: 96,
		newGen: func(seed int64, m *model) generator {
			// 45% sequential reads, 36% 4 KiB overwrites, 9% sequential
			// writes, 10% stats.
			return newColdGen(seed, m, mix{read: 0.45, write: 0.90}, 0.36)
		},
	}
}

var workloads = map[string]func() *workload{
	"hot-local":   hotLocal,
	"tier-churn":  tierChurn,
	"remote-ns":   remoteNS,
	"stripe-cold": stripeCold,
}
