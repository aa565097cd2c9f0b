// Package muxns is the namespace wire protocol ("muxns") of Distributed
// Mux (paper §4): the one protocol every remote file system speaks,
// whether it is a whole Mux namespace exported to many clients or a
// single native file system joining a Mux as a remote tier or stripe
// node. This package is the protocol alone — message types, the binary
// frame codec and the status codec — and imports nothing above vfs; the
// server is internal/server and the client is internal/muxrpc.
//
//   - Each connection carries NSRequest/NSResponse pairs matched by Seq,
//     each one length-prefixed frame (frame.go) in a hand-written binary
//     layout (codec.go): a fixed header, then only the fields the op
//     uses. Either side rejects an oversized frame from its 4-byte header,
//     and every length inside a frame is checked against the bytes left in
//     it before anything is allocated. Responses may return in any order —
//     the server pipelines them as workers finish — so a slow readdir
//     never head-of-line blocks a fast stat on the same socket.
//   - A request may carry a *batch* of sub-operations (reads/writes tagged
//     with caller-chosen ids). The server coalesces adjacent sub-ops per
//     handle into single downward dispatches and replies per sub-op.
//   - The server can refuse admission (queue past high watermark, client
//     over its rate budget) with codeBusy plus a retry-after hint; see
//     BusyError. A busy reply means the op did not execute.
//   - Errors travel as status codes (status.go), so errors.Is against the
//     vfs sentinels keeps working across the wire.
//
// Handles are scoped to the connection that opened them, so a vanished
// client can never leak server-side handles.
package muxns

import (
	"time"

	"muxfs/internal/vfs"
)

// NSOp enumerates the namespace operations.
type NSOp uint8

const (
	// NSHello is the handshake; it must be the first frame on a
	// connection and carries the protocol version in N.
	NSHello NSOp = iota
	NSOpen
	NSCreate
	NSClose
	NSRead
	NSWrite
	NSTruncateHandle
	NSPunch
	NSSyncHandle
	NSStatHandle
	NSExtents
	NSStat
	NSSetAttr
	NSTruncate
	NSReadDir
	NSRename
	NSRemove
	NSMkdir
	NSStatfs
	NSSync
	NSBatch
	nsOpCount
)

var nsOpNames = [nsOpCount]string{
	"hello", "open", "create", "close", "read", "write",
	"truncate_handle", "punch", "sync_handle", "stat_handle", "extents",
	"stat", "setattr", "truncate", "readdir", "rename", "remove",
	"mkdir", "statfs", "sync", "batch",
}

// String names the op for metrics labels and errors.
func (op NSOp) String() string {
	if int(op) < len(nsOpNames) {
		return nsOpNames[op]
	}
	return "invalid"
}

// NSProtoVersion is the muxns protocol version; the hello frame carries it
// and the server rejects mismatches. Version 2 added the length-prefixed
// frame layer and the negotiated MaxData payload cap; version 3 replaced
// the gob frame bodies with the binary layout in codec.go.
const NSProtoVersion = 3

// NSOpCount reports the size of the op space, for per-op instrument
// tables indexed by NSOp.
func NSOpCount() int { return int(nsOpCount) }

// SetAttrArgs is a partial attribute update in wire form: flags select
// the fields that are set.
type SetAttrArgs struct {
	HasSize    bool
	Size       int64
	HasMode    bool
	Mode       uint32
	HasModTime bool
	ModTime    int64
	HasATime   bool
	ATime      int64
}

// FromSetAttr flattens a vfs partial update into its wire form.
func FromSetAttr(attr vfs.SetAttr) SetAttrArgs {
	var a SetAttrArgs
	if attr.Size != nil {
		a.HasSize, a.Size = true, *attr.Size
	}
	if attr.Mode != nil {
		a.HasMode, a.Mode = true, uint32(*attr.Mode)
	}
	if attr.ModTime != nil {
		a.HasModTime, a.ModTime = true, int64(*attr.ModTime)
	}
	if attr.ATime != nil {
		a.HasATime, a.ATime = true, int64(*attr.ATime)
	}
	return a
}

// ToSetAttr unflattens the wire form back to the vfs partial update.
func (a SetAttrArgs) ToSetAttr() vfs.SetAttr {
	var attr vfs.SetAttr
	if a.HasSize {
		attr.Size = &a.Size
	}
	if a.HasMode {
		m := vfs.FileMode(a.Mode)
		attr.Mode = &m
	}
	if a.HasModTime {
		d := time.Duration(a.ModTime)
		attr.ModTime = &d
	}
	if a.HasATime {
		d := time.Duration(a.ATime)
		attr.ATime = &d
	}
	return attr
}

// NSRequest is one framed namespace request. Fields are a union over the
// op set; the wire carries only the ones its op uses (codec.go).
type NSRequest struct {
	Seq uint64
	Op  NSOp

	Path  string // open/create/stat/setattr/truncate/readdir/remove/mkdir, rename source
	Path2 string // rename destination

	Handle uint64 // handle ops
	Off    int64  // read/write/punch
	N      int64  // read length, punch length, hello protocol version, truncate size

	Data []byte // write payload

	Attr SetAttrArgs // setattr

	Batch []NSSubOp // batch sub-operations
}

// NSSubOp is one read or write inside a batch frame. ID is chosen by the
// caller and echoed in the matching NSSubResult; results may be reordered.
type NSSubOp struct {
	ID     uint32
	Op     NSOp // NSRead or NSWrite
	Handle uint64
	Off    int64
	N      int64  // read length
	Data   []byte // write payload
}

// NSResponse is one framed reply, matched to its request by Seq. Op echoes
// the request's op, which selects the fields the wire carries.
type NSResponse struct {
	Seq  uint64
	Op   NSOp
	Code int
	Msg  string

	// RetryAfterMs is the backoff hint accompanying codeBusy.
	RetryAfterMs int64

	Handle  uint64
	N       int64
	EOF     bool
	Data    []byte
	Info    vfs.FileInfo
	Entries []vfs.DirEntry
	Stat    vfs.StatFS
	Extents []vfs.Extent

	Batch []NSSubResult

	// Hello reply: server name, negotiated limits. MaxData caps one
	// request's payload (read length, write payload, batch payload sum);
	// the server rejects frames past it with vfs.ErrInvalid, so clients
	// chunk larger transfers.
	ServerName string
	MaxBatch   int
	MaxData    int64
}

// NSSubResult is one sub-op's outcome.
type NSSubResult struct {
	ID   uint32
	Code int
	Msg  string
	N    int64
	EOF  bool
	Data []byte
	// Coalesced marks a sub-op the server served from a merged dispatch
	// (several adjacent sub-ops collapsed into one downward I/O).
	Coalesced bool
}

// Busy reports a busy rejection: the request did not execute and may be
// retried after RetryAfterMs.
func (r *NSResponse) Busy() bool { return r.Code == codeBusy }

// Err decodes the response status, reconstructing BusyError hints.
func (r *NSResponse) Err() error {
	if r.Code == codeBusy {
		return &BusyError{RetryAfter: time.Duration(r.RetryAfterMs) * time.Millisecond}
	}
	return decodeStatus(r.Code, r.Msg)
}

// Err decodes the sub-result status.
func (r *NSSubResult) Err() error { return decodeStatus(r.Code, r.Msg) }
