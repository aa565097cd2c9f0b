package ec

import "muxfs/internal/muxrpc"

// RPCPoolStats aggregates the connection-pool counters of every node
// backed by a pooled RPC client (muxrpc.NSClient), so the core
// telemetry snapshot sees through the stripe composite to its remote
// transports. Nodes backed by local file systems contribute nothing.
func (s *StripeSet) RPCPoolStats() []muxrpc.PoolStats {
	var out []muxrpc.PoolStats
	for _, n := range s.nodes {
		if ps, ok := n.fileSystem().(interface{ RPCPoolStats() []muxrpc.PoolStats }); ok {
			out = append(out, ps.RPCPoolStats()...)
		}
	}
	return out
}
