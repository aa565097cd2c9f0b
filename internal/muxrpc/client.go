package muxrpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"

	"muxfs/internal/vfs"
)

// ErrHandshake reports that the TCP dial succeeded but the post-dial
// protocol handshake ("MuxTier.Name") failed — the peer is reachable but
// is not speaking muxrpc (wrong port, wrong protocol, corrupt frames).
var ErrHandshake = errors.New("muxrpc: handshake failed")

// DefaultPoolSize is the connection-pool width Dial uses when the caller
// doesn't choose one. It matches the default data fan-out width of the
// core engine so a striped tier's concurrent shard ops aren't head-of-line
// blocked on a single socket's reply stream.
const DefaultPoolSize = 8

// Client is a vfs.FileSystem whose operations execute on a remote Server.
// Register it with Mux via AddTier and the remote machine becomes a tier.
//
// Calls are spread round-robin over a small pool of net/rpc connections:
// net/rpc multiplexes concurrent calls on one socket, but replies are
// decoded by a single reader goroutine per connection, so one socket
// serializes large payload decodes. The pool lets K concurrent shard
// reads actually stream in parallel.
type Client struct {
	name    string
	network string
	addr    string
	next    atomic.Uint64
	conns   []*poolConn

	// Pool counters (PoolStats). Dials counts successful socket dials,
	// initial and reconnect; reconnects counts only the lazy redials after
	// a slot was invalidated by a connection failure.
	dials      atomic.Int64
	reconnects atomic.Int64
	dialErrs   atomic.Int64
	calls      atomic.Int64
	connErrs   atomic.Int64
	retries    atomic.Int64
}

// poolConn is one slot of the pool. The slot redials lazily after a
// connection-level failure; mu guards the redial so concurrent callers
// don't stampede.
type poolConn struct {
	mu       sync.Mutex
	network  string
	addr     string
	rc       *rpc.Client
	owner    *Client
	inflight atomic.Int64
}

// get returns the slot's live connection, redialing if the previous one
// was invalidated.
func (pc *poolConn) get() (*rpc.Client, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.rc == nil {
		rc, err := rpc.Dial(pc.network, pc.addr)
		if err != nil {
			tierDialErrors.Add(1)
			if pc.owner != nil {
				pc.owner.dialErrs.Add(1)
			}
			return nil, err
		}
		pc.rc = rc
		tierDials.Add(1)
		if pc.owner != nil {
			pc.owner.dials.Add(1)
			pc.owner.reconnects.Add(1)
		}
	}
	return pc.rc, nil
}

// invalidate drops rc if it is still the slot's current connection.
func (pc *poolConn) invalidate(rc *rpc.Client) {
	pc.mu.Lock()
	if pc.rc == rc {
		pc.rc.Close()
		pc.rc = nil
	}
	pc.mu.Unlock()
}

func (pc *poolConn) close() {
	pc.mu.Lock()
	if pc.rc != nil {
		pc.rc.Close()
		pc.rc = nil
	}
	pc.mu.Unlock()
}

var _ vfs.FileSystem = (*Client)(nil)

// Dial connects to a muxrpc server at addr ("host:port") with the default
// pool size.
func Dial(network, addr string) (*Client, error) {
	return DialPool(network, addr, DefaultPoolSize)
}

// DialPool connects with an explicit connection-pool size (minimum 1).
// All connections are established eagerly so a dead peer fails fast; the
// handshake runs once on the first connection.
func DialPool(network, addr string, size int) (*Client, error) {
	if size < 1 {
		size = 1
	}
	c := &Client{network: network, addr: addr, conns: make([]*poolConn, size)}
	for i := range c.conns {
		rc, err := rpc.Dial(network, addr)
		if err != nil {
			tierDialErrors.Add(1)
			c.Close()
			return nil, err
		}
		tierDials.Add(1)
		c.dials.Add(1)
		c.conns[i] = &poolConn{network: network, addr: addr, rc: rc, owner: c}
	}
	var nr NameReply
	if err := c.conns[0].rc.Call("MuxTier.Name", struct{}{}, &nr); err != nil {
		tierHandshakeFails.Add(1)
		c.Close()
		return nil, fmt.Errorf("%w: %s %s: %v", ErrHandshake, network, addr, err)
	}
	c.name = "remote:" + nr.Name
	return c, nil
}

// PoolSize reports the number of pooled connections.
func (c *Client) PoolSize() int { return len(c.conns) }

// Close tears down every pooled connection.
func (c *Client) Close() error {
	var first error
	for _, pc := range c.conns {
		if pc == nil {
			continue
		}
		pc.mu.Lock()
		if pc.rc != nil {
			if err := pc.rc.Close(); err != nil && first == nil {
				first = err
			}
			pc.rc = nil
		}
		pc.mu.Unlock()
	}
	return first
}

// Name identifies the remote file system.
func (c *Client) Name() string { return c.name }

// isConnErr reports whether err is a connection-level failure (socket
// died, stream desynchronized) rather than an application error returned
// by the server. net/rpc surfaces these as ErrShutdown for calls queued
// after the reader loop dies, and as the raw read error (unexpected EOF,
// reset, gob desync) for the calls in flight when it died.
func isConnErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "unexpected EOF") ||
		strings.Contains(s, "connection reset") ||
		strings.Contains(s, "broken pipe") ||
		strings.Contains(s, "use of closed network connection")
}

// call issues method over the next pooled connection. Idempotent calls
// (absolute-offset reads/writes, stats, truncates — anything safe to
// apply twice) get one reconnect-and-retry when the connection itself
// failed; server handles survive reconnects because the handle table
// lives in the Server, not the connection.
func (c *Client) call(method string, args, reply any, idempotent bool) error {
	pc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	rc, err := pc.get()
	if err != nil {
		return err
	}
	c.calls.Add(1)
	pc.inflight.Add(1)
	err = rc.Call(method, args, reply)
	pc.inflight.Add(-1)
	if !isConnErr(err) {
		return err
	}
	c.connErrs.Add(1)
	pc.invalidate(rc)
	if !idempotent {
		return &NonIdempotentError{Method: method, Cause: err}
	}
	rc, rerr := pc.get()
	if rerr != nil {
		return err
	}
	c.retries.Add(1)
	pc.inflight.Add(1)
	err = rc.Call(method, args, reply)
	pc.inflight.Add(-1)
	if isConnErr(err) {
		c.connErrs.Add(1)
		pc.invalidate(rc)
	}
	return err
}

func (c *Client) callOK(method string, args any, idempotent bool) error {
	var reply OKReply
	if err := c.call(method, args, &reply, idempotent); err != nil {
		return err
	}
	return reply.Err()
}

// Create makes and opens a remote file.
func (c *Client) Create(path string) (vfs.File, error) {
	var reply HandleReply
	if err := c.call("MuxTier.Create", PathArgs{Path: path}, &reply, false); err != nil {
		return nil, err
	}
	if err := reply.Err(); err != nil {
		return nil, err
	}
	return &remoteFile{c: c, handle: reply.Handle, path: vfs.CleanPath(path)}, nil
}

// Open opens a remote file. Opening is read-only bookkeeping on the
// server, so it is retried on connection failure (a leaked handle on a
// double-apply is reclaimed when the server restarts).
func (c *Client) Open(path string) (vfs.File, error) {
	var reply HandleReply
	if err := c.call("MuxTier.Open", PathArgs{Path: path}, &reply, true); err != nil {
		return nil, err
	}
	if err := reply.Err(); err != nil {
		return nil, err
	}
	return &remoteFile{c: c, handle: reply.Handle, path: vfs.CleanPath(path)}, nil
}

// Remove deletes a remote file or empty directory.
func (c *Client) Remove(path string) error {
	return c.callOK("MuxTier.Remove", PathArgs{Path: path}, false)
}

// Rename moves a remote file.
func (c *Client) Rename(oldPath, newPath string) error {
	return c.callOK("MuxTier.Rename", RenameArgs{Old: oldPath, New: newPath}, false)
}

// Mkdir creates a remote directory.
func (c *Client) Mkdir(path string) error {
	return c.callOK("MuxTier.Mkdir", PathArgs{Path: path}, false)
}

// ReadDir lists a remote directory.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	var reply ReadDirReply
	if err := c.call("MuxTier.ReadDir", PathArgs{Path: path}, &reply, true); err != nil {
		return nil, err
	}
	return reply.Entries, reply.Err()
}

// Stat returns remote metadata.
func (c *Client) Stat(path string) (vfs.FileInfo, error) {
	var reply StatReply
	if err := c.call("MuxTier.Stat", PathArgs{Path: path}, &reply, true); err != nil {
		return vfs.FileInfo{}, err
	}
	return reply.Info, reply.Err()
}

// SetAttr applies a partial metadata update remotely. The update sets
// absolute values, so replaying it after a reconnect is safe.
func (c *Client) SetAttr(path string, attr vfs.SetAttr) error {
	args := SetAttrArgs{Path: path}
	if attr.Size != nil {
		args.HasSize, args.Size = true, *attr.Size
	}
	if attr.Mode != nil {
		args.HasMode, args.Mode = true, uint32(*attr.Mode)
	}
	if attr.ModTime != nil {
		args.HasModTime, args.ModTime = true, int64(*attr.ModTime)
	}
	if attr.ATime != nil {
		args.HasATime, args.ATime = true, int64(*attr.ATime)
	}
	return c.callOK("MuxTier.SetAttr", args, true)
}

// Truncate sets a remote file's size by path.
func (c *Client) Truncate(path string, size int64) error {
	return c.callOK("MuxTier.Truncate", TruncatePathArgs{Path: path, Size: size}, true)
}

// Statfs reports remote capacity.
func (c *Client) Statfs() (vfs.StatFS, error) {
	var reply StatfsReply
	if err := c.call("MuxTier.Statfs", struct{}{}, &reply, true); err != nil {
		return vfs.StatFS{}, err
	}
	return reply.Stat, reply.Err()
}

// Sync persists the remote file system.
func (c *Client) Sync() error {
	return c.callOK("MuxTier.Sync", struct{}{}, true)
}

// remoteFile is a vfs.File proxied over the connection.
type remoteFile struct {
	c      *Client
	handle uint64
	path   string
	closed bool
}

var _ vfs.File = (*remoteFile)(nil)

// Path returns the path the handle was opened with.
func (f *remoteFile) Path() string { return f.path }

func (f *remoteFile) check() error {
	if f.closed {
		return vfs.ErrClosed
	}
	return nil
}

// ReadAt reads from the remote file, in wire reads of at most tierMaxRead
// bytes.
func (f *remoteFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	return readChunked(p, off, tierMaxRead, func(chunk []byte, off int64) (int, bool, error) {
		var reply ReadReply
		if err := f.c.call("MuxTier.ReadAt", ReadArgs{Handle: f.handle, Off: off, N: len(chunk)}, &reply, true); err != nil {
			return 0, false, err
		}
		if err := reply.Err(); err != nil {
			return 0, false, err
		}
		return copy(chunk, reply.Data), reply.EOF, nil
	})
}

// readChunked reads p at off in wire reads of at most max bytes. read
// fills one chunk read from off and reports how many bytes landed and
// whether the file ended there. readChunked stops at an error, at the end
// of the file (reported as io.EOF), at a short read, or with p full.
func readChunked(p []byte, off, max int64, read func(chunk []byte, off int64) (n int, eof bool, err error)) (int, error) {
	total := 0
	for {
		chunk := p[total:]
		if int64(len(chunk)) > max {
			chunk = chunk[:max]
		}
		n, eof, err := read(chunk, off+int64(total))
		if err != nil {
			return total, err
		}
		total += n
		if eof {
			return total, io.EOF
		}
		if n < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// WriteAt writes to the remote file. An absolute-offset write of the same
// bytes is idempotent, so it is retried once after a reconnect.
func (f *remoteFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	var reply WriteReply
	if err := f.c.call("MuxTier.WriteAt", WriteArgs{Handle: f.handle, Off: off, Data: p}, &reply, true); err != nil {
		return 0, err
	}
	return reply.N, reply.Err()
}

// Truncate sets the remote file's size.
func (f *remoteFile) Truncate(size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	var reply OKReply
	if err := f.c.call("MuxTier.TruncateHandle", TruncateArgs{Handle: f.handle, Size: size}, &reply, true); err != nil {
		return err
	}
	return reply.Err()
}

// Sync fsyncs the remote file.
func (f *remoteFile) Sync() error {
	if err := f.check(); err != nil {
		return err
	}
	var reply OKReply
	if err := f.c.call("MuxTier.SyncHandle", HandleArgs{Handle: f.handle}, &reply, true); err != nil {
		return err
	}
	return reply.Err()
}

// Close releases the remote handle.
func (f *remoteFile) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	var reply OKReply
	if err := f.c.call("MuxTier.CloseHandle", HandleArgs{Handle: f.handle}, &reply, false); err != nil {
		return err
	}
	return reply.Err()
}

// Stat returns the remote file's metadata.
func (f *remoteFile) Stat() (vfs.FileInfo, error) {
	if err := f.check(); err != nil {
		return vfs.FileInfo{}, err
	}
	var reply StatReply
	if err := f.c.call("MuxTier.StatHandle", HandleArgs{Handle: f.handle}, &reply, true); err != nil {
		return vfs.FileInfo{}, err
	}
	return reply.Info, reply.Err()
}

// Extents lists the remote file's allocated runs.
func (f *remoteFile) Extents() ([]vfs.Extent, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	var reply ExtentsReply
	if err := f.c.call("MuxTier.Extents", HandleArgs{Handle: f.handle}, &reply, true); err != nil {
		return nil, err
	}
	return reply.Extents, reply.Err()
}

// PunchHole deallocates a remote range.
func (f *remoteFile) PunchHole(off, n int64) error {
	if err := f.check(); err != nil {
		return err
	}
	var reply OKReply
	if err := f.c.call("MuxTier.PunchHole", PunchArgs{Handle: f.handle, Off: off, N: n}, &reply, true); err != nil {
		return err
	}
	return reply.Err()
}

// Crash asks the remote node to simulate power loss (fault drills).
func (c *Client) Crash() {
	var reply OKReply
	_ = c.call("MuxTier.Crash", struct{}{}, &reply, false)
}

// Recover asks the remote node to run crash recovery.
func (c *Client) Recover() error {
	var reply OKReply
	if err := c.call("MuxTier.Recover", struct{}{}, &reply, false); err != nil {
		return err
	}
	return reply.Err()
}
