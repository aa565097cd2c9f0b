package muxrpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"muxfs/internal/vfs"
)

// Server exposes one vfs.FileSystem over net/rpc. Open files are tracked by
// handle id; a vanished client leaks handles until the server stops, which
// is acceptable for the prototype (§4 lists full fault handling as open).
type Server struct {
	fs vfs.FileSystem

	mu      sync.Mutex
	handles map[uint64]vfs.File
	nextID  uint64

	// Connection/call lifecycle for graceful shutdown: Drain waits for
	// calls already executing to finish before the connections are torn
	// down, so an orderly stop never cuts an RPC mid-flight.
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	inflight atomic.Int64
}

// NewServer wraps fs for remote service.
func NewServer(fs vfs.FileSystem) *Server {
	return &Server{fs: fs, handles: map[uint64]vfs.File{}, nextID: 1, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on l until the listener closes. It blocks;
// run it in a goroutine.
func (s *Server) Serve(l net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("MuxTier", s); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		go func() {
			srv.ServeConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
		}()
	}
}

// begin marks one RPC call in flight; the returned func ends it. Every
// exported method calls it first, so Drain can wait for genuine quiescence
// rather than just closed sockets.
func (s *Server) begin() func() {
	s.inflight.Add(1)
	return func() { s.inflight.Add(-1) }
}

// InFlight reports the number of RPC calls currently executing.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Drain performs an orderly shutdown of the connection side: the caller
// closes the listener first (so no new connections arrive), then Drain
// waits up to timeout for in-flight calls to complete and closes every
// remaining connection. Calls that arrive on open connections during the
// drain window still execute; the window closes when the server goes
// quiescent or the timeout expires, whichever is first. It returns the
// number of calls still executing when connections were severed (0 for a
// clean drain).
func (s *Server) Drain(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cut := s.inflight.Load()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	s.connMu.Unlock()
	return cut
}

func (s *Server) track(f vfs.File) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	s.handles[id] = f
	return id
}

func (s *Server) handle(id uint64) (vfs.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.handles[id]
	if !ok {
		return nil, vfs.ErrClosed
	}
	return f, nil
}

// Name reports the wrapped file system's name.
func (s *Server) Name(_ struct{}, reply *NameReply) error {
	defer s.begin()()
	reply.Name = s.fs.Name()
	return nil
}

// Create makes and opens a file.
func (s *Server) Create(args PathArgs, reply *HandleReply) error {
	defer s.begin()()
	f, err := s.fs.Create(args.Path)
	if err == nil {
		reply.Handle = s.track(f)
	}
	reply.Status = status(err)
	return nil
}

// Open opens a file.
func (s *Server) Open(args PathArgs, reply *HandleReply) error {
	defer s.begin()()
	f, err := s.fs.Open(args.Path)
	if err == nil {
		reply.Handle = s.track(f)
	}
	reply.Status = status(err)
	return nil
}

// Remove deletes a file or empty directory.
func (s *Server) Remove(args PathArgs, reply *OKReply) error {
	defer s.begin()()
	reply.Status = status(s.fs.Remove(args.Path))
	return nil
}

// Rename moves a file.
func (s *Server) Rename(args RenameArgs, reply *OKReply) error {
	defer s.begin()()
	reply.Status = status(s.fs.Rename(args.Old, args.New))
	return nil
}

// Mkdir creates a directory.
func (s *Server) Mkdir(args PathArgs, reply *OKReply) error {
	defer s.begin()()
	reply.Status = status(s.fs.Mkdir(args.Path))
	return nil
}

// ReadDir lists a directory.
func (s *Server) ReadDir(args PathArgs, reply *ReadDirReply) error {
	defer s.begin()()
	ents, err := s.fs.ReadDir(args.Path)
	reply.Entries = ents
	reply.Status = status(err)
	return nil
}

// Stat returns path metadata.
func (s *Server) Stat(args PathArgs, reply *StatReply) error {
	defer s.begin()()
	fi, err := s.fs.Stat(args.Path)
	reply.Info = fi
	reply.Status = status(err)
	return nil
}

// SetAttr applies a partial metadata update.
func (s *Server) SetAttr(args SetAttrArgs, reply *OKReply) error {
	defer s.begin()()
	var attr vfs.SetAttr
	if args.HasSize {
		attr.Size = &args.Size
	}
	if args.HasMode {
		m := vfs.FileMode(args.Mode)
		attr.Mode = &m
	}
	if args.HasModTime {
		d := time.Duration(args.ModTime)
		attr.ModTime = &d
	}
	if args.HasATime {
		d := time.Duration(args.ATime)
		attr.ATime = &d
	}
	reply.Status = status(s.fs.SetAttr(args.Path, attr))
	return nil
}

// Truncate sets a file's size by path.
func (s *Server) Truncate(args TruncatePathArgs, reply *OKReply) error {
	defer s.begin()()
	reply.Status = status(s.fs.Truncate(args.Path, args.Size))
	return nil
}

// Statfs reports capacity accounting.
func (s *Server) Statfs(_ struct{}, reply *StatfsReply) error {
	defer s.begin()()
	st, err := s.fs.Statfs()
	reply.Stat = st
	reply.Status = status(err)
	return nil
}

// Sync persists the whole file system.
func (s *Server) Sync(_ struct{}, reply *OKReply) error {
	defer s.begin()()
	reply.Status = status(s.fs.Sync())
	return nil
}

// ReadAt serves a handle read. The length is a wire integer, so it is
// checked against tierMaxRead before it sizes the read buffer.
func (s *Server) ReadAt(args ReadArgs, reply *ReadReply) error {
	defer s.begin()()
	if args.N < 0 || args.N > tierMaxRead {
		reply.Status = status(fmt.Errorf("%w: read of %d bytes (cap %d)", vfs.ErrInvalid, args.N, tierMaxRead))
		return nil
	}
	f, err := s.handle(args.Handle)
	if err != nil {
		reply.Status = status(err)
		return nil
	}
	buf := make([]byte, args.N)
	n, err := f.ReadAt(buf, args.Off)
	reply.Data = buf[:n]
	if errors.Is(err, io.EOF) {
		reply.EOF = true
		err = nil
	}
	reply.Status = status(err)
	return nil
}

// WriteAt serves a handle write.
func (s *Server) WriteAt(args WriteArgs, reply *WriteReply) error {
	defer s.begin()()
	f, err := s.handle(args.Handle)
	if err != nil {
		reply.Status = status(err)
		return nil
	}
	n, err := f.WriteAt(args.Data, args.Off)
	reply.N = n
	reply.Status = status(err)
	return nil
}

// TruncateHandle sets an open file's size.
func (s *Server) TruncateHandle(args TruncateArgs, reply *OKReply) error {
	defer s.begin()()
	f, err := s.handle(args.Handle)
	if err != nil {
		reply.Status = status(err)
		return nil
	}
	reply.Status = status(f.Truncate(args.Size))
	return nil
}

// SyncHandle fsyncs an open file.
func (s *Server) SyncHandle(args HandleArgs, reply *OKReply) error {
	defer s.begin()()
	f, err := s.handle(args.Handle)
	if err != nil {
		reply.Status = status(err)
		return nil
	}
	reply.Status = status(f.Sync())
	return nil
}

// CloseHandle releases an open file.
func (s *Server) CloseHandle(args HandleArgs, reply *OKReply) error {
	defer s.begin()()
	s.mu.Lock()
	f, ok := s.handles[args.Handle]
	delete(s.handles, args.Handle)
	s.mu.Unlock()
	if !ok {
		reply.Status = status(vfs.ErrClosed)
		return nil
	}
	reply.Status = status(f.Close())
	return nil
}

// StatHandle returns an open file's metadata.
func (s *Server) StatHandle(args HandleArgs, reply *StatReply) error {
	defer s.begin()()
	f, err := s.handle(args.Handle)
	if err != nil {
		reply.Status = status(err)
		return nil
	}
	fi, err := f.Stat()
	reply.Info = fi
	reply.Status = status(err)
	return nil
}

// Extents lists an open file's allocated runs.
func (s *Server) Extents(args HandleArgs, reply *ExtentsReply) error {
	defer s.begin()()
	f, err := s.handle(args.Handle)
	if err != nil {
		reply.Status = status(err)
		return nil
	}
	exts, err := f.Extents()
	reply.Extents = exts
	reply.Status = status(err)
	return nil
}

// PunchHole deallocates a range of an open file.
func (s *Server) PunchHole(args PunchArgs, reply *OKReply) error {
	defer s.begin()()
	f, err := s.handle(args.Handle)
	if err != nil {
		reply.Status = status(err)
		return nil
	}
	reply.Status = status(f.PunchHole(args.Off, args.N))
	return nil
}

// Crash injects a simulated power failure on the served file system, when
// it supports fault injection (testing/fault drills for Distributed Mux).
func (s *Server) Crash(_ struct{}, reply *OKReply) error {
	defer s.begin()()
	if cr, ok := s.fs.(vfs.CrashRecoverer); ok {
		cr.Crash()
		reply.Status = status(nil)
	} else {
		reply.Status = status(vfs.ErrInvalid)
	}
	return nil
}

// Recover replays the served file system's recovery path.
func (s *Server) Recover(_ struct{}, reply *OKReply) error {
	defer s.begin()()
	if cr, ok := s.fs.(vfs.CrashRecoverer); ok {
		reply.Status = status(cr.Recover())
	} else {
		reply.Status = status(vfs.ErrInvalid)
	}
	return nil
}
