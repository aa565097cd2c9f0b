package muxns

import (
	"fmt"
	"time"

	"muxfs/internal/vfs"
)

// Binary layout of a muxns frame body (protocol version 3). Integers are
// varints: uvarint for sequence numbers, handles, ids, counts and lengths;
// zigzag varint for every other integer (so a hostile negative length
// still round-trips to admission, which rejects it). Varints must be
// minimally encoded and bools are one byte, 0 or 1, so each value has
// exactly one wire form. A byte field or string is a uvarint length then
// that many bytes; a list is a uvarint count then its elements.
//
// Request:  uvarint Seq, byte Op, then the op's fields:
//
//	hello                                  varint N (protocol version)
//	open create stat readdir remove mkdir  str Path
//	rename                                 str Path, str Path2
//	truncate                               str Path, varint N (size)
//	setattr                                str Path, byte has-mask (size 1, mode 2,
//	                                       mtime 4, atime 8), then each present
//	                                       field in that order: varint Size,
//	                                       uvarint Mode, varint ModTime, varint ATime
//	close sync_handle stat_handle extents  uvarint Handle
//	read                                   uvarint Handle, varint Off, varint N
//	write                                  uvarint Handle, varint Off, bytes Data
//	truncate_handle                        uvarint Handle, varint N (size)
//	punch                                  uvarint Handle, varint Off, varint N
//	batch                                  list of sub-ops: uvarint ID, byte Op,
//	                                       uvarint Handle, varint Off, then
//	                                       varint N (read) or bytes Data (write)
//	statfs sync, any other op              nothing
//
// Response: uvarint Seq, byte Op (echoing the request's), varint Code. A
// non-zero Code is followed by str Msg (and varint RetryAfterMs when the
// code is busy) and nothing else. Code 0 is followed by the op's fields:
//
//	hello          str ServerName, varint MaxBatch, varint MaxData
//	open create    uvarint Handle
//	read           bool EOF, bytes Data
//	write          varint N
//	stat           file info: str Path, varint Size, varint Blocks,
//	stat_handle    uvarint Mode, varint ModTime, varint ATime, varint CTime
//	extents        list of varint Off, varint Len
//	readdir        list of str Name, bool IsDir
//	statfs         varint Capacity, Used, Available, Files
//	batch          list of sub-results: uvarint ID, varint Code, str Msg,
//	               varint N, byte flags (EOF 1, Coalesced 2), bytes Data
//	any other op   nothing

// Minimum wire sizes of list elements, for count checks.
const (
	nsMinSubOp     = 4 // ID, Op, Handle, Off
	nsMinSubResult = 6 // ID, Code, Msg length, N, flags, Data length
	nsMinExtent    = 2
	nsMinDirEntry  = 2
)

const (
	attrHasSize = 1 << iota
	attrHasMode
	attrHasModTime
	attrHasATime
	attrHasAll = attrHasSize | attrHasMode | attrHasModTime | attrHasATime
)

const (
	subEOF = 1 << iota
	subCoalesced
	subFlagsAll = subEOF | subCoalesced
)

func (r *NSRequest) encode(e *nsEnc) {
	e.uvarint(r.Seq)
	e.byte(byte(r.Op))
	switch r.Op {
	case NSHello:
		e.varint(r.N)
	case NSOpen, NSCreate, NSStat, NSReadDir, NSRemove, NSMkdir:
		e.str(r.Path)
	case NSRename:
		e.str(r.Path)
		e.str(r.Path2)
	case NSTruncate:
		e.str(r.Path)
		e.varint(r.N)
	case NSSetAttr:
		e.str(r.Path)
		r.Attr.encode(e)
	case NSClose, NSSyncHandle, NSStatHandle, NSExtents:
		e.uvarint(r.Handle)
	case NSRead, NSPunch:
		e.uvarint(r.Handle)
		e.varint(r.Off)
		e.varint(r.N)
	case NSWrite:
		e.uvarint(r.Handle)
		e.varint(r.Off)
		e.bytes(r.Data)
	case NSTruncateHandle:
		e.uvarint(r.Handle)
		e.varint(r.N)
	case NSBatch:
		e.uvarint(uint64(len(r.Batch)))
		for i := range r.Batch {
			s := &r.Batch[i]
			e.uvarint(uint64(s.ID))
			e.byte(byte(s.Op))
			e.uvarint(s.Handle)
			e.varint(s.Off)
			switch s.Op {
			case NSRead:
				e.varint(s.N)
			case NSWrite:
				e.bytes(s.Data)
			}
		}
	}
}

// decode reads a request body; a batch of more than maxBatch sub-ops
// (when maxBatch > 0) skips the rest of the body and fails with
// ErrBatchTooBig.
func (r *NSRequest) decode(d *nsDec, payload func(n int) []byte, maxBatch int) {
	r.Seq = d.uvarint()
	r.Op = NSOp(d.byte())
	switch r.Op {
	case NSHello:
		r.N = d.varint()
	case NSOpen, NSCreate, NSStat, NSReadDir, NSRemove, NSMkdir:
		r.Path = d.str()
	case NSRename:
		r.Path = d.str()
		r.Path2 = d.str()
	case NSTruncate:
		r.Path = d.str()
		r.N = d.varint()
	case NSSetAttr:
		r.Path = d.str()
		r.Attr.decode(d)
	case NSClose, NSSyncHandle, NSStatHandle, NSExtents:
		r.Handle = d.uvarint()
	case NSRead, NSPunch:
		r.Handle = d.uvarint()
		r.Off = d.varint()
		r.N = d.varint()
	case NSWrite:
		r.Handle = d.uvarint()
		r.Off = d.varint()
		r.Data = d.bytes(payload)
	case NSTruncateHandle:
		r.Handle = d.uvarint()
		r.N = d.varint()
	case NSBatch:
		n := d.count(nsMinSubOp)
		if maxBatch > 0 && n > maxBatch {
			d.skip()
			if d.err == nil {
				d.err = fmt.Errorf("%w: batch of %d exceeds limit %d", ErrBatchTooBig, n, maxBatch)
			}
			return
		}
		if n == 0 {
			return
		}
		r.Batch = make([]NSSubOp, n)
		for i := range r.Batch {
			s := &r.Batch[i]
			s.ID = d.uint32()
			s.Op = NSOp(d.byte())
			s.Handle = d.uvarint()
			s.Off = d.varint()
			switch s.Op {
			case NSRead:
				s.N = d.varint()
			case NSWrite:
				s.Data = d.bytes(payload)
			}
		}
	}
}

func (a *SetAttrArgs) encode(e *nsEnc) {
	var has byte
	if a.HasSize {
		has |= attrHasSize
	}
	if a.HasMode {
		has |= attrHasMode
	}
	if a.HasModTime {
		has |= attrHasModTime
	}
	if a.HasATime {
		has |= attrHasATime
	}
	e.byte(has)
	if a.HasSize {
		e.varint(a.Size)
	}
	if a.HasMode {
		e.uvarint(uint64(a.Mode))
	}
	if a.HasModTime {
		e.varint(a.ModTime)
	}
	if a.HasATime {
		e.varint(a.ATime)
	}
}

func (a *SetAttrArgs) decode(d *nsDec) {
	has := d.byte()
	if has&^attrHasAll != 0 {
		d.fail("setattr mask %#x", has)
		return
	}
	if a.HasSize = has&attrHasSize != 0; a.HasSize {
		a.Size = d.varint()
	}
	if a.HasMode = has&attrHasMode != 0; a.HasMode {
		a.Mode = d.uint32()
	}
	if a.HasModTime = has&attrHasModTime != 0; a.HasModTime {
		a.ModTime = d.varint()
	}
	if a.HasATime = has&attrHasATime != 0; a.HasATime {
		a.ATime = d.varint()
	}
}

func (r *NSResponse) encode(e *nsEnc) {
	e.uvarint(r.Seq)
	e.byte(byte(r.Op))
	e.varint(int64(r.Code))
	if r.Code != codeOK {
		e.str(r.Msg)
		if r.Code == codeBusy {
			e.varint(r.RetryAfterMs)
		}
		return
	}
	switch r.Op {
	case NSHello:
		e.str(r.ServerName)
		e.varint(int64(r.MaxBatch))
		e.varint(r.MaxData)
	case NSOpen, NSCreate:
		e.uvarint(r.Handle)
	case NSRead:
		e.bool(r.EOF)
		e.bytes(r.Data)
	case NSWrite:
		e.varint(r.N)
	case NSStat, NSStatHandle:
		fi := &r.Info
		e.str(fi.Path)
		e.varint(fi.Size)
		e.varint(fi.Blocks)
		e.uvarint(uint64(fi.Mode))
		e.varint(int64(fi.ModTime))
		e.varint(int64(fi.ATime))
		e.varint(int64(fi.CTime))
	case NSExtents:
		e.uvarint(uint64(len(r.Extents)))
		for _, x := range r.Extents {
			e.varint(x.Off)
			e.varint(x.Len)
		}
	case NSReadDir:
		e.uvarint(uint64(len(r.Entries)))
		for _, de := range r.Entries {
			e.str(de.Name)
			e.bool(de.IsDir)
		}
	case NSStatfs:
		e.varint(r.Stat.Capacity)
		e.varint(r.Stat.Used)
		e.varint(r.Stat.Available)
		e.varint(r.Stat.Files)
	case NSBatch:
		e.uvarint(uint64(len(r.Batch)))
		for i := range r.Batch {
			s := &r.Batch[i]
			e.uvarint(uint64(s.ID))
			e.varint(int64(s.Code))
			e.str(s.Msg)
			e.varint(s.N)
			var flags byte
			if s.EOF {
				flags |= subEOF
			}
			if s.Coalesced {
				flags |= subCoalesced
			}
			e.byte(flags)
			e.bytes(s.Data)
		}
	}
}

// decodeRespHeader reads the fixed response header.
func decodeRespHeader(d *nsDec) (seq uint64, op NSOp, code int) {
	return d.uvarint(), NSOp(d.byte()), int(d.varint())
}

// decodeBody reads the fields after the header. With into set, a read
// reply's data is copied straight into dst (r.Data then aliases it), and
// data longer than dst is a protocol error; otherwise it is allocated.
func (r *NSResponse) decodeBody(d *nsDec, dst []byte, into bool) {
	if r.Code != codeOK {
		r.Msg = d.str()
		if r.Code == codeBusy {
			r.RetryAfterMs = d.varint()
		}
		return
	}
	switch r.Op {
	case NSHello:
		r.ServerName = d.str()
		r.MaxBatch = int(d.varint())
		r.MaxData = d.varint()
	case NSOpen, NSCreate:
		r.Handle = d.uvarint()
	case NSRead:
		r.EOF = d.bool()
		if !into {
			r.Data = d.bytes(nil)
			return
		}
		n := d.length()
		if d.err == nil && n > len(dst) {
			d.fail("read reply of %d bytes for a %d-byte read", n, len(dst))
			return
		}
		r.Data = dst[:n]
		d.full(r.Data)
	case NSWrite:
		r.N = d.varint()
	case NSStat, NSStatHandle:
		fi := &r.Info
		fi.Path = d.str()
		fi.Size = d.varint()
		fi.Blocks = d.varint()
		fi.Mode = vfs.FileMode(d.uint32())
		fi.ModTime = time.Duration(d.varint())
		fi.ATime = time.Duration(d.varint())
		fi.CTime = time.Duration(d.varint())
	case NSExtents:
		if n := d.count(nsMinExtent); n > 0 {
			r.Extents = make([]vfs.Extent, n)
			for i := range r.Extents {
				r.Extents[i].Off = d.varint()
				r.Extents[i].Len = d.varint()
			}
		}
	case NSReadDir:
		if n := d.count(nsMinDirEntry); n > 0 {
			r.Entries = make([]vfs.DirEntry, n)
			for i := range r.Entries {
				r.Entries[i].Name = d.str()
				r.Entries[i].IsDir = d.bool()
			}
		}
	case NSStatfs:
		r.Stat.Capacity = d.varint()
		r.Stat.Used = d.varint()
		r.Stat.Available = d.varint()
		r.Stat.Files = d.varint()
	case NSBatch:
		n := d.count(nsMinSubResult)
		if n == 0 {
			return
		}
		r.Batch = make([]NSSubResult, n)
		for i := range r.Batch {
			s := &r.Batch[i]
			s.ID = d.uint32()
			s.Code = int(d.varint())
			s.Msg = d.str()
			s.N = d.varint()
			flags := d.byte()
			if flags&^subFlagsAll != 0 {
				d.fail("batch result flags %#x", flags)
				return
			}
			s.EOF, s.Coalesced = flags&subEOF != 0, flags&subCoalesced != 0
			s.Data = d.bytes(nil)
		}
	}
}
