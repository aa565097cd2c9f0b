// Package muxrpc implements Distributed Mux (paper §4): "a set of machines
// mounting traditional file systems can be integrated into a distributed
// storage system" — a remote machine's file system registers with a local
// Mux as just another tier.
//
// Every remote file system speaks one protocol, muxns (internal/muxns),
// to one server, internal/server. A whole Mux namespace exported by
// `muxd -serve`, a single native file system exported as a remote tier,
// and an erasure-coded stripe node differ only in how the server is
// configured. NSClient (nsclient.go) is the client; it implements
// vfs.FileSystem, so a dialed peer mounts wherever a local file system
// does.
package muxrpc

import (
	"muxfs/internal/server"
	"muxfs/internal/vfs"
)

// NewServer wraps fs for remote service as a tier or stripe node. It is a
// server.Server with its attr cache off: a tier's file system can change
// underneath the export — fault drills crash and recover it in-process —
// so every stat must reach it. Serve it on a listener; Drain is its
// terminal shutdown.
func NewServer(fs vfs.FileSystem) *server.Server {
	return server.New(fs, server.Options{CacheSize: -1})
}

// DefaultPoolSize is the connection-pool width Dial uses. It matches the
// default data fan-out width of the core engine so a striped tier's
// concurrent shard ops aren't head-of-line blocked on one socket.
const DefaultPoolSize = 8

// Dial connects to a tier server at addr ("host:port") with the default
// pool size.
func Dial(network, addr string) (*NSClient, error) {
	return DialPool(network, addr, DefaultPoolSize)
}

// DialPool connects with an explicit connection-pool width (minimum 1).
func DialPool(network, addr string, size int) (*NSClient, error) {
	return NSDialOpts(network, addr, NSDialOptions{PoolSize: size})
}
