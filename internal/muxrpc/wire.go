// Package muxrpc implements Distributed Mux (paper §4): a vfs.FileSystem
// proxied over net/rpc, so "a set of machines mounting traditional file
// systems can be integrated into a distributed storage system" — the remote
// machine's file system registers with a local Mux as just another tier.
//
// Server wraps any vfs.FileSystem and serves it on a listener; Client dials
// and implements vfs.FileSystem/vfs.File locally. Sentinel errors travel as
// integer codes so errors.Is keeps working across the wire.
package muxrpc

import (
	"errors"
	"fmt"
	"time"

	"muxfs/internal/vfs"
)

// Error codes carried in replies; 0 means success.
const (
	codeOK = iota
	codeNotExist
	codeExist
	codeIsDir
	codeNotDir
	codeNotEmpty
	codeNoSpace
	codeInvalid
	codeClosed
	codeOther
	codeBusy
)

// ErrBusy reports server-side admission control: the request was rejected
// before execution — the worker queue is past its high watermark or the
// client exceeded its rate budget — and can be retried after the hinted
// delay. Nothing was executed, so retrying is always safe.
var ErrBusy = errors.New("muxrpc: server busy")

// BusyError carries the server's retry hint. errors.Is(err, ErrBusy)
// matches it.
type BusyError struct {
	// RetryAfter is the server's suggested backoff before retrying (zero
	// when the server offered no estimate).
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("muxrpc: server busy (retry after %v)", e.RetryAfter)
	}
	return "muxrpc: server busy"
}

func (e *BusyError) Unwrap() error { return ErrBusy }

// ErrNonIdempotent reports that the connection failed during a call that
// is not safe to replay (create, remove, rename, mkdir, close): the op may
// or may not have executed on the server. The client never silently
// retries these; the caller must decide — typically by re-checking state
// with an idempotent op (Stat) once the peer is reachable again.
var ErrNonIdempotent = errors.New("muxrpc: connection lost during non-idempotent call")

// NonIdempotentError wraps the underlying connection failure; errors.Is
// matches both ErrNonIdempotent and the transport cause.
type NonIdempotentError struct {
	Method string // the wire method that was in flight
	Cause  error  // the connection-level failure
}

func (e *NonIdempotentError) Error() string {
	return fmt.Sprintf("muxrpc: connection lost during non-idempotent %s (op may or may not have applied): %v", e.Method, e.Cause)
}

func (e *NonIdempotentError) Unwrap() []error { return []error{ErrNonIdempotent, e.Cause} }

// encodeErr maps an error to (code, message).
func encodeErr(err error) (int, string) {
	switch {
	case err == nil:
		return codeOK, ""
	case errors.Is(err, vfs.ErrNotExist):
		return codeNotExist, err.Error()
	case errors.Is(err, vfs.ErrExist):
		return codeExist, err.Error()
	case errors.Is(err, vfs.ErrIsDir):
		return codeIsDir, err.Error()
	case errors.Is(err, vfs.ErrNotDir):
		return codeNotDir, err.Error()
	case errors.Is(err, vfs.ErrNotEmpty):
		return codeNotEmpty, err.Error()
	case errors.Is(err, vfs.ErrNoSpace):
		return codeNoSpace, err.Error()
	case errors.Is(err, vfs.ErrInvalid):
		return codeInvalid, err.Error()
	case errors.Is(err, vfs.ErrClosed):
		return codeClosed, err.Error()
	case errors.Is(err, ErrBusy):
		return codeBusy, err.Error()
	default:
		return codeOther, err.Error()
	}
}

// decodeErr reconstructs a sentinel-wrapped error from (code, message).
func decodeErr(code int, msg string) error {
	var sentinel error
	switch code {
	case codeOK:
		return nil
	case codeNotExist:
		sentinel = vfs.ErrNotExist
	case codeExist:
		sentinel = vfs.ErrExist
	case codeIsDir:
		sentinel = vfs.ErrIsDir
	case codeNotDir:
		sentinel = vfs.ErrNotDir
	case codeNotEmpty:
		sentinel = vfs.ErrNotEmpty
	case codeNoSpace:
		sentinel = vfs.ErrNoSpace
	case codeInvalid:
		sentinel = vfs.ErrInvalid
	case codeClosed:
		sentinel = vfs.ErrClosed
	case codeBusy:
		return &BusyError{}
	default:
		return errors.New("muxrpc remote: " + msg)
	}
	return &remoteError{sentinel: sentinel, msg: msg}
}

// remoteError preserves errors.Is identity across the wire.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return "muxrpc remote: " + e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// Status is the common error-bearing reply component.
type Status struct {
	Code int
	Msg  string
}

func status(err error) Status {
	code, msg := encodeErr(err)
	return Status{Code: code, Msg: msg}
}

// Err converts the status back to an error.
func (s Status) Err() error { return decodeErr(s.Code, s.Msg) }

// Wire argument/reply types. net/rpc uses encoding/gob underneath.

// PathArgs names one path.
type PathArgs struct{ Path string }

// RenameArgs names source and destination.
type RenameArgs struct{ Old, New string }

// TruncatePathArgs sets a size by path.
type TruncatePathArgs struct {
	Path string
	Size int64
}

// SetAttrArgs carries a partial attribute update (flags select fields; gob
// handles pointers poorly across versions, so flatten).
type SetAttrArgs struct {
	Path       string
	HasSize    bool
	Size       int64
	HasMode    bool
	Mode       uint32
	HasModTime bool
	ModTime    int64
	HasATime   bool
	ATime      int64
}

// HandleReply returns an opened file handle id.
type HandleReply struct {
	Status
	Handle uint64
}

// StatReply returns file metadata.
type StatReply struct {
	Status
	Info vfs.FileInfo
}

// ReadDirReply returns directory entries.
type ReadDirReply struct {
	Status
	Entries []vfs.DirEntry
}

// StatfsReply returns capacity accounting.
type StatfsReply struct {
	Status
	Stat vfs.StatFS
}

// OKReply carries only a status.
type OKReply struct{ Status }

// HandleArgs addresses an open handle.
type HandleArgs struct{ Handle uint64 }

// tierMaxRead caps one MuxTier ReadAt: the server answers a negative or
// longer length with vfs.ErrInvalid before allocating anything, and
// Client splits longer reads. The cap sits well above the largest reads
// the stripe layer sends a node (a batch of at most 4 MiB across the
// data shards) and migration's 256 KiB copy chunks, so neither is split.
const tierMaxRead = 16 << 20

// ReadArgs requests a read.
type ReadArgs struct {
	Handle uint64
	Off    int64
	N      int
}

// ReadReply returns read data; EOF marks a short read at end of file.
type ReadReply struct {
	Status
	Data []byte
	EOF  bool
}

// WriteArgs requests a write.
type WriteArgs struct {
	Handle uint64
	Off    int64
	Data   []byte
}

// WriteReply returns the byte count.
type WriteReply struct {
	Status
	N int
}

// TruncateArgs sets a handle's size.
type TruncateArgs struct {
	Handle uint64
	Size   int64
}

// PunchArgs punches a hole.
type PunchArgs struct {
	Handle uint64
	Off, N int64
}

// ExtentsReply lists allocated runs.
type ExtentsReply struct {
	Status
	Extents []vfs.Extent
}

// NameReply returns the remote file system's name.
type NameReply struct{ Name string }
