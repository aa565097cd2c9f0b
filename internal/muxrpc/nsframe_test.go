package muxrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"muxfs/internal/fstest"
	"muxfs/internal/muxns"
	"muxfs/internal/vfs"
)

// The muxns codec's tests live with its client and use only the
// protocol's exported surface, as every peer must.

// frameHeaderLen is the muxns frame's length prefix.
const frameHeaderLen = 4

// nsSampleRequests covers every op's field set, including values only a
// hostile peer sends (negative lengths) and batch sub-ops of every kind.
func nsSampleRequests() []*muxns.NSRequest {
	return []*muxns.NSRequest{
		{Seq: 1, Op: muxns.NSHello, N: muxns.NSProtoVersion},
		{Seq: 2, Op: muxns.NSWrite, Handle: 7, Off: 512, Data: bytes.Repeat([]byte{9}, 4096)},
		{Seq: 3, Op: muxns.NSStat, Path: "/a/b"},
		{Seq: 4, Op: muxns.NSOpen, Path: "/x"},
		{Seq: 5, Op: muxns.NSCreate, Path: "/y"},
		{Seq: 6, Op: muxns.NSClose, Handle: 3},
		{Seq: 7, Op: muxns.NSRead, Handle: 1 << 40, Off: 1 << 33, N: 4096},
		{Seq: 8, Op: muxns.NSRead, Handle: 1, Off: -8, N: -1},
		{Seq: 9, Op: muxns.NSTruncateHandle, Handle: 2, N: 100},
		{Seq: 10, Op: muxns.NSPunch, Handle: 2, Off: 4096, N: 8192},
		{Seq: 11, Op: muxns.NSSyncHandle, Handle: 2},
		{Seq: 12, Op: muxns.NSStatHandle, Handle: 2},
		{Seq: 13, Op: muxns.NSExtents, Handle: 2},
		{Seq: 14, Op: muxns.NSSetAttr, Path: "/s", Attr: muxns.SetAttrArgs{HasSize: true, Size: 10, HasATime: true, ATime: -5}},
		{Seq: 15, Op: muxns.NSSetAttr, Path: "/s", Attr: muxns.SetAttrArgs{HasMode: true, Mode: 0o755, HasModTime: true, ModTime: 1 << 50}},
		{Seq: 16, Op: muxns.NSTruncate, Path: "/t", N: -2},
		{Seq: 17, Op: muxns.NSReadDir, Path: "/"},
		{Seq: 18, Op: muxns.NSRename, Path: "/old", Path2: "/new"},
		{Seq: 19, Op: muxns.NSRemove, Path: "/r"},
		{Seq: 20, Op: muxns.NSMkdir, Path: "/d"},
		{Seq: 21, Op: muxns.NSStatfs},
		{Seq: 22, Op: muxns.NSSync},
		{Seq: 23, Op: muxns.NSBatch, Batch: []muxns.NSSubOp{
			{ID: 0, Op: muxns.NSRead, Handle: 1, Off: 0, N: 4096},
			{ID: 1<<32 - 1, Op: muxns.NSWrite, Handle: 1, Off: 4096, Data: []byte("abc")},
			{ID: 2, Op: muxns.NSStat, Handle: 9, Off: -1},
		}},
		{Seq: 1<<64 - 1, Op: muxns.NSOp(muxns.NSOpCount() + 7)},
	}
}

// nsSampleResponses covers every op's reply fields plus error and busy
// replies.
func nsSampleResponses() []*muxns.NSResponse {
	codeInvalid, _ := muxns.EncodeStatus(vfs.ErrInvalid)
	codeBusy, _ := muxns.EncodeStatus(muxns.ErrBusy)
	return []*muxns.NSResponse{
		{Seq: 1, Op: muxns.NSHello, ServerName: "xfs@srv", MaxBatch: 256, MaxData: 8 << 20},
		{Seq: 2, Op: muxns.NSWrite, N: 4096},
		{Seq: 3, Op: muxns.NSStat, Info: vfs.FileInfo{Path: "/a/b", Size: 5, Blocks: 4096, Mode: vfs.ModeDir | 0o755,
			ModTime: 7, ATime: -1, CTime: 1 << 60}},
		{Seq: 4, Op: muxns.NSOpen, Handle: 12},
		{Seq: 5, Op: muxns.NSRead, EOF: true, Data: bytes.Repeat([]byte{7}, 3000)},
		{Seq: 6, Op: muxns.NSRead},
		{Seq: 7, Op: muxns.NSExtents, Extents: []vfs.Extent{{Off: 0, Len: 4096}, {Off: 1 << 40, Len: 1}}},
		{Seq: 8, Op: muxns.NSReadDir, Entries: []vfs.DirEntry{{Name: "a", IsDir: true}, {Name: "bb"}}},
		{Seq: 9, Op: muxns.NSStatfs, Stat: vfs.StatFS{Capacity: 1 << 30, Used: 5, Available: 1<<30 - 5, Files: 3}},
		{Seq: 10, Op: muxns.NSBatch, Batch: []muxns.NSSubResult{
			{ID: 0, N: 3, EOF: true, Data: []byte("xyz"), Coalesced: true},
			{ID: 1, Code: codeInvalid, Msg: "bad", N: 2},
		}},
		{Seq: 11, Op: muxns.NSRead, Code: codeInvalid, Msg: "read of -1 bytes"},
		{Seq: 12, Op: muxns.NSWrite, Code: codeBusy, Msg: muxns.ErrBusy.Error(), RetryAfterMs: 3},
		{Seq: 13, Op: muxns.NSSync},
	}
}

// frameOf prefixes body with its length.
func frameOf(body []byte) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(len(body)))[:4:4]
}

func encodeRequest(t testing.TB, r *muxns.NSRequest) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := muxns.NewNSFrameWriter(&wire).WriteRequest(r); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

func encodeResponse(t testing.TB, r *muxns.NSResponse) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := muxns.NewNSFrameWriter(&wire).WriteResponse(r); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestNSFrameRoundtrip runs every sample request and response through the
// codec and back, over one stream.
func TestNSFrameRoundtrip(t *testing.T) {
	var wire bytes.Buffer
	fw := muxns.NewNSFrameWriter(&wire)
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

	fr := muxns.NewNSFrameReader(&wire, 64<<10)
	for i, want := range nsSampleRequests() {
		var got muxns.NSRequest
		if err := fr.ReadRequest(&got, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("request %d:\n got %+v\nwant %+v", i, &got, want)
		}
	}
	for i, want := range nsSampleResponses() {
		var got muxns.NSResponse
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
	frame := encodeRequest(t, &muxns.NSRequest{Seq: 1, Op: muxns.NSWrite, Data: bytes.Repeat([]byte{1}, 8192)})
	if err := muxns.NewNSFrameReader(bytes.NewReader(frame), 1024).ReadRequest(&muxns.NSRequest{}, nil); !errors.Is(err, muxns.ErrFrameTooBig) {
		t.Fatalf("decode over cap: %v, want ErrFrameTooBig", err)
	}

	// The same bytes decode fine once SetMax widens the cap.
	fr := muxns.NewNSFrameReader(bytes.NewReader(frame), 1024)
	fr.SetMax(64 << 10)
	if err := fr.ReadRequest(&muxns.NSRequest{}, nil); err != nil {
		t.Fatalf("decode under raised cap: %v", err)
	}
}

// TestNSBatchLimit checks a reader with a batch limit refuses a larger
// batch from its count — no sub-op decoded, the error an ErrInvalid — and
// leaves the stream at the next frame.
func TestNSBatchLimit(t *testing.T) {
	batch := &muxns.NSRequest{Seq: 7, Op: muxns.NSBatch, Batch: make([]muxns.NSSubOp, 5)}
	for i := range batch.Batch {
		batch.Batch[i] = muxns.NSSubOp{ID: uint32(i), Op: muxns.NSWrite, Handle: 1, Data: []byte{byte(i)}}
	}
	stream := append(encodeRequest(t, batch), encodeRequest(t, &muxns.NSRequest{Seq: 8, Op: muxns.NSStat, Path: "/"})...)

	fr := muxns.NewNSFrameReader(bytes.NewReader(stream), 1<<20)
	fr.SetMaxBatch(4)
	var req muxns.NSRequest
	err := fr.ReadRequest(&req, nil)
	if !errors.Is(err, muxns.ErrBatchTooBig) || !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("5-sub-op batch at limit 4: err = %v, want ErrBatchTooBig", err)
	}
	if req.Seq != 7 || req.Op != muxns.NSBatch || req.Batch != nil {
		t.Fatalf("refused batch decoded as %+v, want seq and op only", req)
	}
	if err := fr.ReadRequest(&req, nil); err != nil || req.Seq != 8 || req.Path != "/" {
		t.Fatalf("frame after the refused batch: %+v, %v", req, err)
	}

	fr = muxns.NewNSFrameReader(bytes.NewReader(stream), 1<<20)
	fr.SetMaxBatch(5)
	if err := fr.ReadRequest(&req, nil); err != nil || !reflect.DeepEqual(&req, batch) {
		t.Fatalf("batch at its limit: %+v, %v", req, err)
	}
}

// TestNSDecodeRejects feeds malformed bodies: each must fail with
// muxns.ErrBadFrame, and none may allocate on behalf of a length or count the
// frame cannot hold.
func TestNSDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"write length past end", []byte{1, byte(muxns.NSWrite), 1, 0, 0xff, 0xff, 0xff, 0x7f, 'x'}},
		{"path length past end", []byte{1, byte(muxns.NSStat), 0xff, 0xff, 0x03, '/'}},
		{"batch count past end", []byte{1, byte(muxns.NSBatch), 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0}},
		{"non-minimal varint", []byte{0x81, 0x00, byte(muxns.NSSync)}},
		{"varint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, byte(muxns.NSSync)}},
		{"setattr mask", []byte{1, byte(muxns.NSSetAttr), 0, 0x10}},
		{"batch id past 32 bits", []byte{1, byte(muxns.NSBatch), 1, 0x80, 0x80, 0x80, 0x80, 0x10, byte(muxns.NSRead), 0, 0, 0}},
		{"trailing bytes", []byte{1, byte(muxns.NSSync), 0}},
		{"truncated field", []byte{1, byte(muxns.NSRead), 1}},
	}
	for _, c := range cases {
		frame := append(frameOf(c.body), c.body...)
		// fuzzDecode holds the decode to the heap bound, which leaves room
		// for the error text but for nothing sized by the hostile length.
		err := fuzzDecode(t, frame, func(fr *muxns.NSFrameReader, payload func(int) []byte) error {
			return fr.ReadRequest(&muxns.NSRequest{}, payload)
		})
		if !errors.Is(err, muxns.ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", c.name, err)
		}
	}

	// A hostile response count is checked the same way.
	body := []byte{1, byte(muxns.NSReadDir), 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a'}
	frame := append(frameOf(body), body...)
	if err := muxns.NewNSFrameReader(bytes.NewReader(frame), 1<<20).ReadResponse(&muxns.NSResponse{}); !errors.Is(err, muxns.ErrBadFrame) {
		t.Fatalf("readdir count past end: err = %v, want ErrBadFrame", err)
	}
}

// TestNSReadReplyIntoDst checks the client's read path: reply data lands
// in the caller's buffer, a reply longer than it is a protocol error, and
// so is a reply the router refuses.
func TestNSReadReplyIntoDst(t *testing.T) {
	frame := encodeResponse(t, &muxns.NSResponse{Seq: 1, Op: muxns.NSRead, Data: []byte("hello")})
	var resp muxns.NSResponse
	readInto := func(dst []byte, refuse error) error {
		fr := muxns.NewNSFrameReader(bytes.NewReader(frame), 1<<20)
		return fr.ReadResponseFor(func(seq uint64, op muxns.NSOp) (*muxns.NSResponse, []byte, error) {
			if seq != 1 || op != muxns.NSRead {
				t.Fatalf("routed seq %d op %s", seq, op)
			}
			return &resp, dst, refuse
		})
	}
	dst := make([]byte, 8)
	if err := readInto(dst, nil); err != nil {
		t.Fatal(err)
	}
	if string(dst[:5]) != "hello" || &resp.Data[0] != &dst[0] || resp.Seq != 1 {
		t.Fatalf("data %q not read into dst", resp.Data)
	}
	if err := readInto(dst[:4], nil); !errors.Is(err, muxns.ErrBadFrame) {
		t.Fatalf("5-byte reply into a 4-byte read: err = %v, want ErrBadFrame", err)
	}
	if err := readInto(dst, errors.New("unknown seq")); !errors.Is(err, muxns.ErrBadFrame) {
		t.Fatalf("refused reply: err = %v, want ErrBadFrame", err)
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

// TestNSDecodeExpansion decodes frames made only of minimum-size list
// elements — the most heap per wire byte a peer can force — and holds
// each to nsDecodeExpansion. Thousands of elements make the fixed slack a
// rounding error, so the per-element ratio is what is checked.
func TestNSDecodeExpansion(t *testing.T) {
	const n = 4096
	subOps := make([]muxns.NSSubOp, n)
	for i := range subOps {
		subOps[i].Op = muxns.NSStat // no fields past ID, Op, Handle, Off
	}
	for name, frame := range map[string][]byte{
		"NSSubOp":      encodeRequest(t, &muxns.NSRequest{Op: muxns.NSBatch, Batch: subOps}),
		"NSSubResult":  encodeResponse(t, &muxns.NSResponse{Op: muxns.NSBatch, Batch: make([]muxns.NSSubResult, n)}),
		"vfs.DirEntry": encodeResponse(t, &muxns.NSResponse{Op: muxns.NSReadDir, Entries: make([]vfs.DirEntry, n)}),
		"vfs.Extent":   encodeResponse(t, &muxns.NSResponse{Op: muxns.NSExtents, Extents: make([]vfs.Extent, n)}),
	} {
		err := fuzzDecode(t, frame, func(fr *muxns.NSFrameReader, payload func(int) []byte) error {
			if name == "NSSubOp" {
				return fr.ReadRequest(&muxns.NSRequest{}, payload)
			}
			return fr.ReadResponse(&muxns.NSResponse{})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// fuzzDecode decodes frame with decode, checking that it never panics (the
// fuzzer reports a panic as a failure), never hands out payload buffers
// beyond the frame's length, and stays within the heap bound.
func fuzzDecode(t *testing.T, frame []byte, decode func(fr *muxns.NSFrameReader, payload func(int) []byte) error) error {
	// One reader for the warm-up run and one for the measured run, both
	// built (with their read buffers) outside the measurement.
	readers := []*muxns.NSFrameReader{
		muxns.NewNSFrameReader(bytes.NewReader(frame), int64(len(frame))),
		muxns.NewNSFrameReader(bytes.NewReader(frame), int64(len(frame))),
	}
	var err error
	var payload int
	alloc := func(n int) []byte {
		payload += n
		return make([]byte, n)
	}
	heap := fstest.AllocBytesPerRun(1, func() {
		fr := readers[0]
		readers = readers[1:]
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
		f.Add(encodeRequest(f, r)[frameHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // an empty frame is rejected from its header
		}
		frame := append(frameOf(body), body...)
		var req muxns.NSRequest
		err := fuzzDecode(t, frame, func(fr *muxns.NSFrameReader, payload func(int) []byte) error {
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
		f.Add(encodeResponse(f, r)[frameHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return
		}
		frame := append(frameOf(body), body...)
		var resp muxns.NSResponse
		err := fuzzDecode(t, frame, func(fr *muxns.NSFrameReader, _ func(int) []byte) error {
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
