package muxrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"muxfs/internal/fstest"
	"muxfs/internal/vfs"
)

// nsSampleRequests covers every op's field set, including values only a
// hostile peer sends (negative lengths) and batch sub-ops of every kind.
func nsSampleRequests() []*NSRequest {
	return []*NSRequest{
		{Seq: 1, Op: NSHello, N: NSProtoVersion},
		{Seq: 2, Op: NSWrite, Handle: 7, Off: 512, Data: bytes.Repeat([]byte{9}, 4096)},
		{Seq: 3, Op: NSStat, Path: "/a/b"},
		{Seq: 4, Op: NSOpen, Path: "/x"},
		{Seq: 5, Op: NSCreate, Path: "/y"},
		{Seq: 6, Op: NSClose, Handle: 3},
		{Seq: 7, Op: NSRead, Handle: 1 << 40, Off: 1 << 33, N: 4096},
		{Seq: 8, Op: NSRead, Handle: 1, Off: -8, N: -1},
		{Seq: 9, Op: NSTruncateHandle, Handle: 2, N: 100},
		{Seq: 10, Op: NSPunch, Handle: 2, Off: 4096, N: 8192},
		{Seq: 11, Op: NSSyncHandle, Handle: 2},
		{Seq: 12, Op: NSStatHandle, Handle: 2},
		{Seq: 13, Op: NSExtents, Handle: 2},
		{Seq: 14, Op: NSSetAttr, Path: "/s", Attr: SetAttrArgs{HasSize: true, Size: 10, HasATime: true, ATime: -5}},
		{Seq: 15, Op: NSSetAttr, Path: "/s", Attr: SetAttrArgs{HasMode: true, Mode: 0o755, HasModTime: true, ModTime: 1 << 50}},
		{Seq: 16, Op: NSTruncate, Path: "/t", N: -2},
		{Seq: 17, Op: NSReadDir, Path: "/"},
		{Seq: 18, Op: NSRename, Path: "/old", Path2: "/new"},
		{Seq: 19, Op: NSRemove, Path: "/r"},
		{Seq: 20, Op: NSMkdir, Path: "/d"},
		{Seq: 21, Op: NSStatfs},
		{Seq: 22, Op: NSSync},
		{Seq: 23, Op: NSBatch, Batch: []NSSubOp{
			{ID: 0, Op: NSRead, Handle: 1, Off: 0, N: 4096},
			{ID: 1<<32 - 1, Op: NSWrite, Handle: 1, Off: 4096, Data: []byte("abc")},
			{ID: 2, Op: NSStat, Handle: 9, Off: -1},
		}},
		{Seq: 1<<64 - 1, Op: nsOpCount + 7},
	}
}

// nsSampleResponses covers every op's reply fields plus error and busy
// replies.
func nsSampleResponses() []*NSResponse {
	return []*NSResponse{
		{Seq: 1, Op: NSHello, ServerName: "xfs@srv", MaxBatch: 256, MaxData: 8 << 20},
		{Seq: 2, Op: NSWrite, N: 4096},
		{Seq: 3, Op: NSStat, Info: vfs.FileInfo{Path: "/a/b", Size: 5, Blocks: 4096, Mode: vfs.ModeDir | 0o755,
			ModTime: 7, ATime: -1, CTime: 1 << 60}},
		{Seq: 4, Op: NSOpen, Handle: 12},
		{Seq: 5, Op: NSRead, EOF: true, Data: bytes.Repeat([]byte{7}, 3000)},
		{Seq: 6, Op: NSRead},
		{Seq: 7, Op: NSExtents, Extents: []vfs.Extent{{Off: 0, Len: 4096}, {Off: 1 << 40, Len: 1}}},
		{Seq: 8, Op: NSReadDir, Entries: []vfs.DirEntry{{Name: "a", IsDir: true}, {Name: "bb"}}},
		{Seq: 9, Op: NSStatfs, Stat: vfs.StatFS{Capacity: 1 << 30, Used: 5, Available: 1<<30 - 5, Files: 3}},
		{Seq: 10, Op: NSBatch, Batch: []NSSubResult{
			{ID: 0, N: 3, EOF: true, Data: []byte("xyz"), Coalesced: true},
			{ID: 1, Code: codeInvalid, Msg: "bad", N: 2},
		}},
		{Seq: 11, Op: NSRead, Code: codeInvalid, Msg: "read of -1 bytes"},
		{Seq: 12, Op: NSWrite, Code: codeBusy, Msg: ErrBusy.Error(), RetryAfterMs: 3},
		{Seq: 13, Op: NSSync},
	}
}

// frameOf prefixes body with its length.
func frameOf(body []byte) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(len(body)))[:4:4]
}

func encodeRequest(t testing.TB, r *NSRequest) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := NewNSFrameWriter(&wire).WriteRequest(r); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

func encodeResponse(t testing.TB, r *NSResponse) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := NewNSFrameWriter(&wire).WriteResponse(r); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestNSFrameRoundtrip runs every sample request and response through the
// codec and back, over one stream.
func TestNSFrameRoundtrip(t *testing.T) {
	var wire bytes.Buffer
	fw := NewNSFrameWriter(&wire)
	for _, r := range nsSampleRequests() {
		if err := fw.WriteRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range nsSampleResponses() {
		if err := fw.WriteResponse(r); err != nil {
			t.Fatal(err)
		}
	}

	fr := NewNSFrameReader(&wire, 64<<10)
	for i, want := range nsSampleRequests() {
		var got NSRequest
		if err := fr.ReadRequest(&got, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("request %d:\n got %+v\nwant %+v", i, &got, want)
		}
	}
	for i, want := range nsSampleResponses() {
		var got NSResponse
		if err := fr.ReadResponse(&got); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("response %d:\n got %+v\nwant %+v", i, &got, want)
		}
	}
}

// TestNSFrameCap checks an over-cap length prefix is rejected from the
// header alone — the payload is never read, let alone allocated.
func TestNSFrameCap(t *testing.T) {
	frame := encodeRequest(t, &NSRequest{Seq: 1, Op: NSWrite, Data: bytes.Repeat([]byte{1}, 8192)})
	if err := NewNSFrameReader(bytes.NewReader(frame), 1024).ReadRequest(&NSRequest{}, nil); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("decode over cap: %v, want ErrFrameTooBig", err)
	}

	// The same bytes decode fine once SetMax widens the cap.
	fr := NewNSFrameReader(bytes.NewReader(frame), 1024)
	fr.SetMax(64 << 10)
	if err := fr.ReadRequest(&NSRequest{}, nil); err != nil {
		t.Fatalf("decode under raised cap: %v", err)
	}
}

// TestNSBatchLimit checks a reader with a batch limit refuses a larger
// batch from its count — no sub-op decoded, the error an ErrInvalid — and
// leaves the stream at the next frame.
func TestNSBatchLimit(t *testing.T) {
	batch := &NSRequest{Seq: 7, Op: NSBatch, Batch: make([]NSSubOp, 5)}
	for i := range batch.Batch {
		batch.Batch[i] = NSSubOp{ID: uint32(i), Op: NSWrite, Handle: 1, Data: []byte{byte(i)}}
	}
	stream := append(encodeRequest(t, batch), encodeRequest(t, &NSRequest{Seq: 8, Op: NSStat, Path: "/"})...)

	fr := NewNSFrameReader(bytes.NewReader(stream), 1<<20)
	fr.SetMaxBatch(4)
	var req NSRequest
	err := fr.ReadRequest(&req, nil)
	if !errors.Is(err, ErrBatchTooBig) || !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("5-sub-op batch at limit 4: err = %v, want ErrBatchTooBig", err)
	}
	if req.Seq != 7 || req.Op != NSBatch || req.Batch != nil {
		t.Fatalf("refused batch decoded as %+v, want seq and op only", req)
	}
	if err := fr.ReadRequest(&req, nil); err != nil || req.Seq != 8 || req.Path != "/" {
		t.Fatalf("frame after the refused batch: %+v, %v", req, err)
	}

	fr = NewNSFrameReader(bytes.NewReader(stream), 1<<20)
	fr.SetMaxBatch(5)
	if err := fr.ReadRequest(&req, nil); err != nil || !reflect.DeepEqual(&req, batch) {
		t.Fatalf("batch at its limit: %+v, %v", req, err)
	}
}

// TestNSDecodeRejects feeds malformed bodies: each must fail with
// ErrBadFrame, and none may allocate on behalf of a length or count the
// frame cannot hold.
func TestNSDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"write length past end", []byte{1, byte(NSWrite), 1, 0, 0xff, 0xff, 0xff, 0x7f, 'x'}},
		{"path length past end", []byte{1, byte(NSStat), 0xff, 0xff, 0x03, '/'}},
		{"batch count past end", []byte{1, byte(NSBatch), 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0}},
		{"non-minimal varint", []byte{0x81, 0x00, byte(NSSync)}},
		{"varint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, byte(NSSync)}},
		{"setattr mask", []byte{1, byte(NSSetAttr), 0, 0x10}},
		{"batch id past 32 bits", []byte{1, byte(NSBatch), 1, 0x80, 0x80, 0x80, 0x80, 0x10, byte(NSRead), 0, 0, 0}},
		{"trailing bytes", []byte{1, byte(NSSync), 0}},
		{"truncated field", []byte{1, byte(NSRead), 1}},
	}
	for _, c := range cases {
		frame := append(frameOf(c.body), c.body...)
		// fuzzDecode holds the decode to the heap bound, which leaves room
		// for the error text but for nothing sized by the hostile length.
		err := fuzzDecode(t, frame, func(fr *NSFrameReader, payload func(int) []byte) error {
			return fr.ReadRequest(&NSRequest{}, payload)
		})
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", c.name, err)
		}
	}

	// A hostile response count is checked the same way.
	body := []byte{1, byte(NSReadDir), 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a'}
	frame := append(frameOf(body), body...)
	if err := NewNSFrameReader(bytes.NewReader(frame), 1<<20).ReadResponse(&NSResponse{}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("readdir count past end: err = %v, want ErrBadFrame", err)
	}
}

// TestNSReadReplyIntoDst checks the client's read path: reply data lands
// in the caller's buffer, and a reply longer than it is a protocol error.
func TestNSReadReplyIntoDst(t *testing.T) {
	frame := encodeResponse(t, &NSResponse{Seq: 1, Op: NSRead, Data: []byte("hello")})
	dst := make([]byte, 8)
	fr := NewNSFrameReader(bytes.NewReader(frame), 1<<20)
	d, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	var resp NSResponse
	resp.Seq, resp.Op, resp.Code = decodeRespHeader(d)
	resp.decodeBody(d, dst, true)
	if err := d.end(); err != nil {
		t.Fatal(err)
	}
	if string(dst[:5]) != "hello" || &resp.Data[0] != &dst[0] {
		t.Fatalf("data %q not read into dst", resp.Data)
	}

	fr = NewNSFrameReader(bytes.NewReader(frame), 1<<20)
	d, _ = fr.next()
	resp.Seq, resp.Op, resp.Code = decodeRespHeader(d)
	resp.decodeBody(d, dst[:4], true)
	if err := d.end(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("5-byte reply into a 4-byte read: err = %v, want ErrBadFrame", err)
	}
}

// nsDecodeExpansion bounds decode heap per frame byte. Byte payloads and
// strings cost at most their own length; a list element costs its Go
// size for its minimum wire size, the worst being a sub-op (56 B for 4
// wire bytes) and a batch sub-result (80 B for 6), plus size-class
// rounding (TestNSDecodeExpansion).
const nsDecodeExpansion = 16

// nsDecodeSlack covers the fixed costs of one decode: the error value and
// its text when the frame is rejected.
const nsDecodeSlack = 1 << 10

// TestNSDecodeExpansion keeps nsDecodeExpansion above every list
// element's Go-size-to-minimum-wire-size ratio, with room for size-class
// rounding (at most 1/8 on the sizes involved).
func TestNSDecodeExpansion(t *testing.T) {
	for name, r := range map[string]float64{
		"NSSubResult":  float64(unsafe.Sizeof(NSSubResult{})) / nsMinSubResult,
		"NSSubOp":      float64(unsafe.Sizeof(NSSubOp{})) / nsMinSubOp,
		"vfs.DirEntry": float64(unsafe.Sizeof(vfs.DirEntry{})) / nsMinDirEntry,
		"vfs.Extent":   float64(unsafe.Sizeof(vfs.Extent{})) / nsMinExtent,
	} {
		if r*1.125 > nsDecodeExpansion {
			t.Errorf("%s: %.1f heap bytes per wire byte exceeds nsDecodeExpansion %d", name, r, nsDecodeExpansion)
		}
	}
}

// fuzzDecode decodes frame with decode, checking that it never panics (the
// fuzzer reports a panic as a failure), never hands out payload buffers
// beyond the frame's length, and stays within the heap bound.
func fuzzDecode(t *testing.T, frame []byte, decode func(fr *NSFrameReader, payload func(int) []byte) error) error {
	var rd bytes.Reader
	fr := NewNSFrameReader(&rd, int64(len(frame)))
	var err error
	var payload int
	alloc := func(n int) []byte {
		payload += n
		return make([]byte, n)
	}
	heap := fstest.AllocBytesPerRun(1, func() {
		rd.Reset(frame)
		fr.d.r.Reset(&rd)
		payload = 0
		err = decode(fr, alloc)
	})
	if payload > len(frame) {
		t.Fatalf("decode handed out %d payload bytes for a %d-byte frame", payload, len(frame))
	}
	if limit := float64(nsDecodeExpansion*len(frame) + nsDecodeSlack); heap > limit {
		t.Fatalf("decode allocated %.0f B for a %d-byte frame (limit %.0f)", heap, len(frame), limit)
	}
	return err
}

// FuzzNSRequestDecode feeds arbitrary frame bodies to the request
// decoder; whatever decodes must re-encode to the same bytes.
func FuzzNSRequestDecode(f *testing.F) {
	for _, r := range nsSampleRequests() {
		f.Add(encodeRequest(f, r)[nsFrameHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // an empty frame is rejected from its header
		}
		frame := append(frameOf(body), body...)
		var req NSRequest
		err := fuzzDecode(t, frame, func(fr *NSFrameReader, payload func(int) []byte) error {
			return fr.ReadRequest(&req, payload)
		})
		if err != nil {
			return
		}
		if again := encodeRequest(t, &req); !bytes.Equal(again, frame) {
			t.Fatalf("re-encode differs:\n in %x\nout %x", frame, again)
		}
	})
}

// FuzzNSResponseDecode is FuzzNSRequestDecode for replies.
func FuzzNSResponseDecode(f *testing.F) {
	for _, r := range nsSampleResponses() {
		f.Add(encodeResponse(f, r)[nsFrameHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return
		}
		frame := append(frameOf(body), body...)
		var resp NSResponse
		err := fuzzDecode(t, frame, func(fr *NSFrameReader, _ func(int) []byte) error {
			return fr.ReadResponse(&resp)
		})
		if err != nil {
			return
		}
		if again := encodeResponse(t, &resp); !bytes.Equal(again, frame) {
			t.Fatalf("re-encode differs:\n in %x\nout %x", frame, again)
		}
	})
}
