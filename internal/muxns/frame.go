package muxns

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"muxfs/internal/vfs"
)

// muxns frame layer. Every NSRequest/NSResponse travels as one
// length-prefixed frame: a 4-byte big-endian body length, then the body in
// the binary layout codec.go documents. The prefix lets each side
// enforce a hard frame-size cap from four bytes of input, before anything
// is read or allocated on the peer's behalf, and every length or count
// inside a body is checked against the bytes the frame has left before it
// is acted on — so a lying or hostile peer can make the receiver allocate
// at most a fixed multiple of what the frame itself carries. A reader
// given a batch limit (SetMaxBatch) also refuses a batch whose sub-op
// count exceeds it before sizing anything by that count.
//
// Byte payloads of nsSpliceMin bytes or more never pass through an
// intermediate frame buffer. The writer sends a frame as one vectored
// write of its encoded fields with those payloads spliced in by
// reference; smaller ones are copied in with the fields. The reader
// decodes field by field
// out of the connection's read buffer, and the receiver says where a
// payload lands: the server draws write payloads from its buffer pool, and
// muxrpc.NSClient reads a reply's data directly into the ReadAt destination.

// NSDefaultMaxData is the default per-request payload cap (read length,
// write payload, batch payload sum), negotiated down to clients in the
// hello reply. Server option MaxData overrides it.
const NSDefaultMaxData = 8 << 20

// NSFrameSlack is the headroom a frame cap allows beyond the payload cap,
// covering field and batch sub-op framing.
const NSFrameSlack = 1 << 20

// ErrFrameTooBig reports a frame whose declared length exceeds the
// receiver's cap. The stream is unrecoverable past it (the oversized
// frame was never read), so the connection dies with it.
var ErrFrameTooBig = errors.New("muxns: frame exceeds size cap")

// ErrBadFrame reports a frame whose body does not parse: a length or count
// past the frame's end, a non-minimal varint, an invalid flag byte, or
// trailing bytes. The stream position is undefined after it, so the
// connection dies with it.
var ErrBadFrame = errors.New("muxns: malformed frame")

// ErrBatchTooBig reports a batch request with more sub-ops than the
// reader's batch limit. The reader skips the frame's body unread, so the
// stream stays in sync and the receiver can answer it; it wraps
// vfs.ErrInvalid, the status such a request is answered with.
var ErrBatchTooBig = fmt.Errorf("%w: muxns batch exceeds sub-op limit", vfs.ErrInvalid)

const nsFrameHeaderLen = 4

// nsSpliceMin is the smallest payload the writer sends by reference
// rather than copying it in with the frame's other fields. Smaller
// payloads are copied, so a frame that carries only those goes out as a
// single iovec.
const nsSpliceMin = 512

// nsReadBuf sizes the read buffer: one read syscall pulls in a whole
// single-op frame, or most of a batch of 4 KiB sub-ops, instead of one
// syscall per payload.
const nsReadBuf = 64 << 10

// NSFrameWriter emits frames onto a stream, one write per frame: the
// encoder appends a frame's fields to a reused buffer (length prefix
// first), splices payloads of nsSpliceMin bytes or more in by reference,
// and the frame goes out as one vectored write — payloads are never
// copied on the way to the socket. Not safe for concurrent use; callers
// serialize writes (both ends already do, per connection).
type NSFrameWriter struct {
	w    io.Writer
	enc  nsEnc
	vecs [][]byte    // backing array of vec, reused across frames
	vec  net.Buffers // the frame being written; WriteTo consumes it
}

// NewNSFrameWriter frames writes onto w.
func NewNSFrameWriter(w io.Writer) *NSFrameWriter {
	return &NSFrameWriter{w: w}
}

// WriteRequest emits req as one frame.
func (fw *NSFrameWriter) WriteRequest(req *NSRequest) error {
	fw.enc.reset()
	req.encode(&fw.enc)
	return fw.flush()
}

// WriteResponse emits resp as one frame.
func (fw *NSFrameWriter) WriteResponse(resp *NSResponse) error {
	fw.enc.reset()
	resp.encode(&fw.enc)
	return fw.flush()
}

// flush fills in the length prefix and writes the encoded frame.
func (fw *NSFrameWriter) flush() error {
	e := &fw.enc
	n := len(e.buf) - nsFrameHeaderLen
	for _, c := range e.cuts {
		n += len(c.p)
	}
	if n > math.MaxUint32 {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(e.buf, uint32(n))
	v, at := fw.vecs[:0], 0
	for _, c := range e.cuts {
		v = append(v, e.buf[at:c.at], c.p)
		at = c.at
	}
	if at < len(e.buf) {
		v = append(v, e.buf[at:])
	}
	fw.vecs, fw.vec = v, v
	_, err := fw.vec.WriteTo(fw.w)
	clear(fw.vecs) // drop the payload references
	clear(e.cuts)
	return err
}

// nsEnc accumulates one frame: its bytes in buf, except payloads of
// nsSpliceMin bytes or more, which cuts splice in by reference.
type nsEnc struct {
	buf  []byte
	cuts []nsCut
}

// nsCut is a payload sent after buf[:at].
type nsCut struct {
	at int
	p  []byte
}

// reset starts a frame, reserving its length prefix.
func (e *nsEnc) reset() {
	e.buf = append(e.buf[:0], 0, 0, 0, 0)
	e.cuts = e.cuts[:0]
}

func (e *nsEnc) byte(b byte) { e.buf = append(e.buf, b) }

func (e *nsEnc) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *nsEnc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// varint writes a zigzag-encoded signed integer.
func (e *nsEnc) varint(v int64) { e.uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (e *nsEnc) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	if len(p) < nsSpliceMin {
		e.buf = append(e.buf, p...)
		return
	}
	e.cuts = append(e.cuts, nsCut{at: len(e.buf), p: p})
}

func (e *nsEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// NSFrameReader unframes a stream, enforcing the frame cap from the length
// prefix and decoding bodies field by field out of its read buffer. A
// decode error other than ErrFrameTooBig leaves the stream mid-frame.
type NSFrameReader struct {
	d        nsDec
	max      int64
	maxBatch int
}

// NewNSFrameReader unframes r with the given per-frame cap.
func NewNSFrameReader(r io.Reader, max int64) *NSFrameReader {
	return &NSFrameReader{d: nsDec{r: bufio.NewReaderSize(r, nsReadBuf)}, max: max}
}

// SetMax raises or lowers the per-frame cap (hello negotiation). Callers
// must not race it with reads; both ends only call it between the
// synchronous handshake and the first pipelined frame.
func (fr *NSFrameReader) SetMax(max int64) {
	if max > 0 {
		fr.max = max
	}
}

// SetMaxBatch caps the sub-op count of a batch request (n <= 0: only the
// frame's length bounds it). ReadRequest refuses a larger batch with
// ErrBatchTooBig before allocating anything for its sub-ops.
func (fr *NSFrameReader) SetMaxBatch(n int) { fr.maxBatch = n }

// next consumes one length prefix and returns the decoder positioned at
// the start of its body.
func (fr *NSFrameReader) next() (*nsDec, error) {
	d := &fr.d
	hdr, err := d.r.Peek(nsFrameHeaderLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr))
	d.r.Discard(nsFrameHeaderLen)
	if n == 0 || n > fr.max {
		return nil, fmt.Errorf("%w: %d bytes (cap %d)", ErrFrameTooBig, n, fr.max)
	}
	d.rem, d.err = int(n), nil
	return d, nil
}

// ReadRequest decodes the next frame into req (which it overwrites). Write
// payloads are read straight into buffers that payload returns (length n,
// caller-owned afterwards); payload nil allocates them. A batch past the
// reader's batch limit returns ErrBatchTooBig with req's Seq and Op set
// and the stream at the next frame.
func (fr *NSFrameReader) ReadRequest(req *NSRequest, payload func(n int) []byte) error {
	d, err := fr.next()
	if err != nil {
		return err
	}
	*req = NSRequest{}
	req.decode(d, payload, fr.maxBatch)
	return d.end()
}

// ReadResponse decodes the next frame into resp (which it overwrites),
// allocating fresh buffers for any payload.
func (fr *NSFrameReader) ReadResponse(resp *NSResponse) error {
	d, err := fr.next()
	if err != nil {
		return err
	}
	*resp = NSResponse{}
	resp.Seq, resp.Op, resp.Code = decodeRespHeader(d)
	resp.decodeBody(d, nil, false)
	return d.end()
}

// ReadResponseFor decodes the next frame into the response route picks
// from its header: route returns the response to fill (which is
// overwritten) and the buffer a read reply's data is read straight into;
// data longer than that buffer is a protocol error. A route error — a
// reply nobody waits for, or one that does not match its call — fails
// the frame with ErrBadFrame.
func (fr *NSFrameReader) ReadResponseFor(route func(seq uint64, op NSOp) (*NSResponse, []byte, error)) error {
	d, err := fr.next()
	if err != nil {
		return err
	}
	seq, op, code := decodeRespHeader(d)
	if d.err != nil {
		return d.err
	}
	resp, dst, err := route(seq, op)
	if err != nil {
		d.fail("%v", err)
		return d.err
	}
	*resp = NSResponse{Seq: seq, Op: op, Code: code}
	resp.decodeBody(d, dst, true)
	return d.end()
}

// nsDec decodes one frame body from a buffered stream. rem counts the
// body bytes not yet consumed; every length and count is checked against
// it before anything is allocated or read. The first error sticks and
// turns later reads into zero-value no-ops, so decoders read linearly and
// check once at the end.
type nsDec struct {
	r   *bufio.Reader
	rem int
	err error
}

func (d *nsDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
	}
}

// ioErr records a stream failure inside a frame: EOF there is unexpected.
func (d *nsDec) ioErr(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if d.err == nil {
		d.err = err
	}
}

// end reports the decode outcome, rejecting bytes the layout left unread.
func (d *nsDec) end() error {
	if d.err == nil && d.rem != 0 {
		d.fail("%d trailing bytes", d.rem)
	}
	return d.err
}

func (d *nsDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.rem < 1 {
		d.fail("field past end of frame")
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.ioErr(err)
		return 0
	}
	d.rem--
	return b
}

func (d *nsDec) bool() bool {
	switch b := d.byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte %#x", b)
		return false
	}
}

// uvarint reads a minimally encoded unsigned varint; a longer-than-needed
// encoding is rejected so every value has exactly one wire form.
func (d *nsDec) uvarint() uint64 {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b := d.byte()
		if d.err != nil {
			return 0
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if b == 0 && i > 0 {
				d.fail("non-minimal varint")
				return 0
			}
			return v
		}
	}
	d.fail("varint overflows 64 bits")
	return 0
}

func (d *nsDec) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *nsDec) uint32() uint32 {
	v := d.uvarint()
	if v > 1<<32-1 {
		d.fail("value %d overflows 32 bits", v)
		return 0
	}
	return uint32(v)
}

// length reads a byte-field length, which must fit in what the frame has
// left.
func (d *nsDec) length() int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.rem) {
		d.fail("length %d past end of frame (%d bytes left)", n, d.rem)
		return 0
	}
	return int(n)
}

// count reads an element count; each element takes at least minSize wire
// bytes, so a count the frame cannot hold is rejected before the caller
// sizes a slice by it.
func (d *nsDec) count(minSize int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.rem/minSize) {
		d.fail("count %d past end of frame (%d bytes left)", n, d.rem)
		return 0
	}
	return int(n)
}

// skip discards the rest of the body, leaving the stream at the next
// frame.
func (d *nsDec) skip() {
	n, err := d.r.Discard(d.rem)
	d.rem -= n
	if err != nil {
		d.ioErr(err)
	}
}

// full reads exactly len(p) body bytes into p.
func (d *nsDec) full(p []byte) {
	if d.err != nil || len(p) == 0 {
		return
	}
	if len(p) > d.rem {
		d.fail("length %d past end of frame (%d bytes left)", len(p), d.rem)
		return
	}
	n, err := io.ReadFull(d.r, p)
	d.rem -= n
	if err != nil {
		d.ioErr(err)
	}
}

// bytes reads a length-prefixed byte field into a buffer from alloc (nil
// allocates). Zero-length fields decode as nil.
func (d *nsDec) bytes(alloc func(n int) []byte) []byte {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	var p []byte
	if alloc != nil {
		p = alloc(n)[:n]
	} else {
		p = make([]byte, n)
	}
	d.full(p)
	return p
}

func (d *nsDec) str() string {
	n := d.length()
	if d.err != nil || n == 0 {
		return ""
	}
	// Short strings convert straight out of the read buffer.
	if n <= d.r.Size() {
		b, err := d.r.Peek(n)
		if err != nil {
			d.ioErr(err)
			return ""
		}
		s := string(b)
		d.r.Discard(n)
		d.rem -= n
		return s
	}
	b := make([]byte, n)
	d.full(b)
	return string(b)
}
