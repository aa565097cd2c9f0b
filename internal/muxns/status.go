package muxns

import (
	"errors"
	"fmt"
	"time"

	"muxfs/internal/vfs"
)

// Status codes carried in replies; 0 means success. Sentinel errors travel
// as these codes so errors.Is keeps working across the wire.
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
var ErrBusy = errors.New("muxns: server busy")

// BusyError carries the server's retry hint. errors.Is(err, ErrBusy)
// matches it.
type BusyError struct {
	// RetryAfter is the server's suggested backoff before retrying (zero
	// when the server offered no estimate).
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("muxns: server busy (retry after %v)", e.RetryAfter)
	}
	return "muxns: server busy"
}

func (e *BusyError) Unwrap() error { return ErrBusy }

// ErrNonIdempotent reports that the connection failed during a call that
// is not safe to replay (create, remove, rename, mkdir, close): the op may
// or may not have executed on the server. The client never silently
// retries these; the caller must decide — typically by re-checking state
// with an idempotent op (Stat) once the peer is reachable again.
var ErrNonIdempotent = errors.New("muxns: connection lost during non-idempotent call")

// NonIdempotentError wraps the underlying connection failure; errors.Is
// matches both ErrNonIdempotent and the transport cause.
type NonIdempotentError struct {
	Method string // the wire method that was in flight
	Cause  error  // the connection-level failure
}

func (e *NonIdempotentError) Error() string {
	return fmt.Sprintf("muxns: connection lost during non-idempotent %s (op may or may not have applied): %v", e.Method, e.Cause)
}

func (e *NonIdempotentError) Unwrap() []error { return []error{ErrNonIdempotent, e.Cause} }

// ErrHandshake reports that the TCP dial succeeded but the hello
// handshake failed — the peer is reachable but is not speaking this
// protocol version (wrong port, wrong protocol, corrupt frames).
var ErrHandshake = errors.New("muxns: handshake failed")

// EncodeStatus maps an error to its wire (code, message) pair — codeOK for
// nil — so the server fills responses without re-implementing the
// sentinel table.
func EncodeStatus(err error) (int, string) {
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

// decodeStatus reconstructs a sentinel-wrapped error from (code, message).
func decodeStatus(code int, msg string) error {
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
		return errors.New("muxns remote: " + msg)
	}
	return &remoteError{sentinel: sentinel, msg: msg}
}

// remoteError preserves errors.Is identity across the wire.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return "muxns remote: " + e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }
