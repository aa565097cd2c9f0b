// Package fsrec defines the shared metadata log-record vocabulary used by
// every persistent component in the repository: novafs's inode log, the
// xfslite/extlite write-ahead journals, Strata's operation log, and Mux's
// own meta file. One codec, one replay grammar.
package fsrec

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"
	"unsafe"

	"muxfs/internal/journal"
	"muxfs/internal/vfs"
)

// Op types.
const (
	OpCreate   = 1 // Ino, Mode, Path
	OpMkdir    = 2 // Ino, Mode, Path
	OpRemove   = 3 // Path
	OpRename   = 4 // Path -> Path2
	OpExtent   = 5 // Ino, Off, Delta, N, Size, MTime: map [Off,Off+N) at Off+Delta
	OpSetAttr  = 6 // Ino, Size, Mode, MTime, ATime, CTime
	OpSizeTime = 7 // Ino, Size, MTime
	OpPunch    = 8 // Ino, Off, N, MTime
	OpTruncate = 9 // Ino, Size, MTime
)

// Op is one decoded metadata operation.
type Op struct {
	Type  uint8
	Ino   uint64
	Path  string
	Path2 string
	Mode  vfs.FileMode
	Off   int64
	Delta int64
	N     int64
	Size  int64
	MTime time.Duration
	ATime time.Duration
	CTime time.Duration
}

// AppendRecord encodes the op as a journal record whose payload — its
// numeric words or its path bytes — is appended to arena, and returns the
// record and the grown arena. The arena belongs to the caller, who may
// reuse it once the record has been committed (journal.Dual.Commit keeps
// no record), so a reused arena makes records cost no heap.
func (op Op) AppendRecord(arena []byte) (journal.Record, []byte) {
	r := journal.Record{Type: op.Type, A: int64(op.Ino)}
	at := len(arena)
	le := binary.LittleEndian
	switch op.Type {
	case OpCreate, OpMkdir:
		r.B = int64(op.Mode)
		arena = append(arena, op.Path...)
	case OpRemove:
		r.A = 0
		arena = append(arena, op.Path...)
	case OpRename:
		r.A = 0
		arena = append(append(append(arena, op.Path...), 0), op.Path2...)
	case OpExtent:
		r.B = op.Off
		arena = le.AppendUint64(arena, uint64(op.Delta))
		arena = le.AppendUint64(arena, uint64(op.N))
		arena = le.AppendUint64(arena, uint64(op.Size))
		arena = le.AppendUint64(arena, uint64(op.MTime))
	case OpSetAttr:
		arena = le.AppendUint64(arena, uint64(op.Size))
		arena = le.AppendUint64(arena, uint64(op.Mode))
		arena = le.AppendUint64(arena, uint64(op.MTime))
		arena = le.AppendUint64(arena, uint64(op.ATime))
		arena = le.AppendUint64(arena, uint64(op.CTime))
	case OpSizeTime, OpTruncate:
		r.B = op.Size
		arena = le.AppendUint64(arena, uint64(op.MTime))
	case OpPunch:
		r.B = op.Off
		arena = le.AppendUint64(arena, uint64(op.N))
		arena = le.AppendUint64(arena, uint64(op.MTime))
	default:
		panic(fmt.Sprintf("fsrec: unknown op type %d", op.Type))
	}
	if len(arena) > at {
		r.Payload = arena[at:len(arena):len(arena)]
	}
	return r, arena
}

// Batch is a reusable list of journal records whose payloads live in an
// arena the batch owns. Reset keeps both buffers, so a steady stream of
// batches allocates nothing once they have grown to the largest one. A
// record's payload is valid until the next Reset.
type Batch struct {
	Recs  []journal.Record
	arena []byte
}

// Add appends op's record, its payload encoded into the arena.
func (b *Batch) Add(op Op) {
	var r journal.Record
	r, b.arena = op.AppendRecord(b.arena)
	b.Recs = append(b.Recs, r)
}

// AddRecord appends a copy of r, its payload copied into the arena.
func (b *Batch) AddRecord(r journal.Record) {
	if len(r.Payload) > 0 {
		at := len(b.arena)
		b.arena = append(b.arena, r.Payload...)
		r.Payload = b.arena[at:len(b.arena):len(b.arena)]
	}
	b.Recs = append(b.Recs, r)
}

// Reset empties the batch, keeping its buffers.
func (b *Batch) Reset() {
	b.Recs, b.arena = b.Recs[:0], b.arena[:0]
}

// Bytes is the heap the batch holds: its record list and its arena.
func (b *Batch) Bytes() int {
	return cap(b.Recs)*int(unsafe.Sizeof(journal.Record{})) + cap(b.arena)
}

// Parse decodes a journal record back into an Op.
func Parse(r journal.Record) (Op, error) {
	op := Op{Type: r.Type}
	switch r.Type {
	case OpCreate, OpMkdir:
		op.Ino = uint64(r.A)
		op.Mode = vfs.FileMode(r.B)
		op.Path = string(r.Payload)
	case OpRemove:
		op.Path = string(r.Payload)
	case OpRename:
		parts := strings.SplitN(string(r.Payload), "\x00", 2)
		if len(parts) != 2 {
			return op, fmt.Errorf("fsrec: bad rename payload %q", r.Payload)
		}
		op.Path, op.Path2 = parts[0], parts[1]
	case OpExtent:
		if len(r.Payload) != 32 {
			return op, fmt.Errorf("fsrec: bad extent payload len %d", len(r.Payload))
		}
		op.Ino = uint64(r.A)
		op.Off = r.B
		op.Delta = int64(binary.LittleEndian.Uint64(r.Payload[0:8]))
		op.N = int64(binary.LittleEndian.Uint64(r.Payload[8:16]))
		op.Size = int64(binary.LittleEndian.Uint64(r.Payload[16:24]))
		op.MTime = time.Duration(binary.LittleEndian.Uint64(r.Payload[24:32]))
	case OpSetAttr:
		if len(r.Payload) != 40 {
			return op, fmt.Errorf("fsrec: bad setattr payload len %d", len(r.Payload))
		}
		op.Ino = uint64(r.A)
		op.Size = int64(binary.LittleEndian.Uint64(r.Payload[0:8]))
		op.Mode = vfs.FileMode(binary.LittleEndian.Uint64(r.Payload[8:16]))
		op.MTime = time.Duration(binary.LittleEndian.Uint64(r.Payload[16:24]))
		op.ATime = time.Duration(binary.LittleEndian.Uint64(r.Payload[24:32]))
		op.CTime = time.Duration(binary.LittleEndian.Uint64(r.Payload[32:40]))
	case OpSizeTime:
		if len(r.Payload) != 8 {
			return op, fmt.Errorf("fsrec: bad sizetime payload len %d", len(r.Payload))
		}
		op.Ino = uint64(r.A)
		op.Size = r.B
		op.MTime = time.Duration(binary.LittleEndian.Uint64(r.Payload))
	case OpPunch:
		if len(r.Payload) != 16 {
			return op, fmt.Errorf("fsrec: bad punch payload len %d", len(r.Payload))
		}
		op.Ino = uint64(r.A)
		op.Off = r.B
		op.N = int64(binary.LittleEndian.Uint64(r.Payload[0:8]))
		op.MTime = time.Duration(binary.LittleEndian.Uint64(r.Payload[8:16]))
	case OpTruncate:
		if len(r.Payload) != 8 {
			return op, fmt.Errorf("fsrec: bad truncate payload len %d", len(r.Payload))
		}
		op.Ino = uint64(r.A)
		op.Size = r.B
		op.MTime = time.Duration(binary.LittleEndian.Uint64(r.Payload))
	default:
		return op, fmt.Errorf("fsrec: unknown record type %d", r.Type)
	}
	return op, nil
}
