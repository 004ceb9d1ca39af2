package serve

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"labstor/internal/codec"
	"labstor/internal/core"
)

// FuzzFrameDecode throws arbitrary bytes at the frame splitter and every
// payload decoder. Properties: no panics, no reads past the buffer, and any
// request/response payload that decodes successfully re-encodes to a frame
// that decodes back to the same fields (the codec is a bijection on its
// valid subset).
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: "seed"}))
	f.Add(AppendReq(nil, &ReqFrame{
		ID: 7, Tenant: "t", Mount: "kv::/b", Op: core.OpPut, Key: "k",
		Offset: 123, Size: 16, Payload: []byte("0123456789abcdef"),
	}))
	f.Add(AppendReq(nil, &ReqFrame{
		ID: 8, Tenant: "t", Mount: "kv::/b", Op: core.OpScan, Key: "pfx",
		Prog: "pd:0011223344556677",
	}))
	f.Add(AppendResp(nil, &RespFrame{ID: 9, OK: true, Result: 16, Value: []byte("value")}))
	f.Add(AppendResp(nil, &RespFrame{ID: 10, Err: "boom"}))
	f.Add(AppendBusy(nil, &BusyFrame{ID: 3, Reason: BusyInflight, RetryNs: 50000}))
	f.Add(AppendPing(nil, FramePong, 1))
	f.Add([]byte{frameMagic})
	f.Add(bytes.Repeat([]byte{frameMagic, FrameReq, 0xFF}, 8))

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		// Walk at most a handful of frames so adversarial inputs with many
		// tiny frames stay cheap.
		for i := 0; i < 16 && len(rest) > 0; i++ {
			typ, payload, nrest, err := DecodeFrame(rest, 1<<16)
			if err != nil {
				break
			}
			if len(nrest) >= len(rest) {
				t.Fatalf("DecodeFrame made no progress (%d -> %d bytes)", len(rest), len(nrest))
			}
			rest = nrest
			switch typ {
			case FrameHello:
				if h, err := DecodeHello(payload); err == nil {
					b := AppendHello(nil, &h)
					_, p2, _, err := DecodeFrame(b, 0)
					if err != nil {
						t.Fatalf("re-encode hello: %v", err)
					}
					h2, err := DecodeHello(p2)
					if err != nil || h2 != h {
						t.Fatalf("hello round trip: %+v != %+v (%v)", h2, h, err)
					}
				}
			case FrameReq:
				var r ReqFrame
				if err := DecodeReq(payload, &r); err == nil {
					b := AppendReq(nil, &r)
					_, p2, _, err := DecodeFrame(b, 0)
					if err != nil {
						t.Fatalf("re-encode req: %v", err)
					}
					var r2 ReqFrame
					if err := DecodeReq(p2, &r2); err != nil {
						t.Fatalf("re-decode req: %v", err)
					}
					if r2.ID != r.ID || r2.Tenant != r.Tenant || r2.Mount != r.Mount ||
						r2.Op != r.Op || r2.Path != r.Path || r2.Key != r.Key ||
						r2.Offset != r.Offset || r2.Size != r.Size || r2.Prog != r.Prog ||
						!bytes.Equal(r2.Payload, r.Payload) {
						t.Fatalf("req round trip: %+v != %+v", r2, r)
					}
				}
			case FrameResp:
				var r RespFrame
				if err := DecodeResp(payload, &r); err == nil {
					b := AppendResp(nil, &r)
					_, p2, _, err := DecodeFrame(b, 0)
					if err != nil {
						t.Fatalf("re-encode resp: %v", err)
					}
					var r2 RespFrame
					if err := DecodeResp(p2, &r2); err != nil {
						t.Fatalf("re-decode resp: %v", err)
					}
					if r2.ID != r.ID || r2.OK != r.OK || r2.Result != r.Result ||
						r2.Err != r.Err || !bytes.Equal(r2.Value, r.Value) {
						t.Fatalf("resp round trip: %+v != %+v", r2, r)
					}
				}
			case FrameBusy:
				if b, err := DecodeBusy(payload); err == nil {
					enc := AppendBusy(nil, &b)
					_, p2, _, err := DecodeFrame(enc, 0)
					if err != nil {
						t.Fatalf("re-encode busy: %v", err)
					}
					if b2, err := DecodeBusy(p2); err != nil || b2 != b {
						t.Fatalf("busy round trip: %+v != %+v (%v)", b2, b, err)
					}
				}
			case FramePing, FramePong:
				_, _ = DecodePing(payload)
			}
		}
	})
}

// chunkReader hands out at most chunk bytes per Read, so frames reach the
// stream reader split at arbitrary points.
type chunkReader struct {
	b     []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.b), r.chunk)
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// wireFrame is one decoded frame of any type, bulk field included.
type wireFrame struct {
	typ   byte
	hello HelloFrame
	req   ReqFrame
	resp  RespFrame
	busy  BusyFrame
	ping  uint64
}

func (a *wireFrame) equal(b *wireFrame) bool {
	q, r := &a.req, &b.req
	x, y := &a.resp, &b.resp
	return a.typ == b.typ && a.hello == b.hello && a.busy == b.busy && a.ping == b.ping &&
		q.ID == r.ID && q.Tenant == r.Tenant && q.Mount == r.Mount && q.Op == r.Op && q.Path == r.Path &&
		q.Key == r.Key && q.Offset == r.Offset && q.Size == r.Size && q.Prog == r.Prog && bytes.Equal(q.Payload, r.Payload) &&
		x.ID == y.ID && x.OK == y.OK && x.Result == y.Result && x.Err == y.Err && bytes.Equal(x.Value, y.Value)
}

// decodeWhole is the reference: DecodeFrame, then the type's payload decoder.
func decodeWhole(b []byte, maxPayload int) (f wireFrame, rest []byte, err error) {
	typ, payload, rest, err := DecodeFrame(b, maxPayload)
	if err != nil {
		return f, rest, err
	}
	f.typ = typ
	switch typ {
	case FrameHello:
		f.hello, err = DecodeHello(payload)
	case FrameReq:
		err = DecodeReq(payload, &f.req)
	case FrameResp:
		err = DecodeResp(payload, &f.resp)
	case FrameBusy:
		f.busy, err = DecodeBusy(payload)
	default:
		f.ping, err = DecodePing(payload)
	}
	return f, rest, err
}

// readStreamed is the same frame taken off a stream: head then bulk for
// requests and responses, payload for the rest. A request's key and mount
// are strings in the reader's key slab, as the server decodes them.
func readStreamed(fr *frameReader) (f wireFrame, err error) {
	if f.typ, _, err = fr.next(); err != nil {
		return f, err
	}
	var p []byte
	switch f.typ {
	case FrameReq:
		var n int
		f.req.keys = &fr.keys
		if n, err = fr.head(&f.req); err == nil {
			f.req.Payload = make([]byte, n)
			err = fr.bulk(f.req.Payload)
		}
	case FrameResp:
		var n int
		if n, err = fr.head(&f.resp); err == nil {
			f.resp.Value = make([]byte, n)
			err = fr.bulk(f.resp.Value)
		}
	case FrameHello:
		if p, err = fr.payload(); err == nil {
			f.hello, err = DecodeHello(p)
		}
	case FrameBusy:
		if p, err = fr.payload(); err == nil {
			f.busy, err = DecodeBusy(p)
		}
	default:
		if p, err = fr.payload(); err == nil {
			f.ping, err = DecodePing(p)
		}
	}
	return f, err
}

// FuzzStreamReader checks the two codec paths against each other.
//
// In: for any byte string, frameReader over a reader that returns the bytes
// in chunks of any size, behind a bufio.Reader of any size, accepts exactly
// the frames DecodeFrame plus the payload decoder accept, with equal fields,
// and rejects where they reject. A request's key and mount come from the
// reader's key slab; each frame still equals its reference after every later
// frame has been decoded into the same slab.
//
// Out: for any response, what frameGather writes is byte for byte what
// AppendResp appends. The response is cut from the same input (error string,
// then value), so both fields take any length, zero included.
func FuzzStreamReader(f *testing.F) {
	long := strings.Repeat("k", headWindow+40) // a head that outgrows the window at any buffer size
	var many []byte
	many = AppendReq(many, &ReqFrame{ID: 1, Mount: "kv::/b", Op: core.OpPut, Key: "k", Payload: bytes.Repeat([]byte{7}, 64)})
	many = AppendReq(many, &ReqFrame{ID: 2, Mount: "kv::/b", Op: core.OpGet, Key: "k"}) // zero-length bulk
	many = AppendResp(many, &RespFrame{ID: 1, OK: true, Result: 64, Value: bytes.Repeat([]byte{9}, 64)})
	many = AppendResp(many, &RespFrame{ID: 2, OK: true})
	many = AppendBusy(many, &BusyFrame{ID: 3, Reason: BusyRate, RetryNs: 1})
	many = AppendPing(many, FramePing, 4)
	f.Add(many, uint16(1), uint16(0), uint16(0))
	f.Add(many, uint16(4096), uint16(1<<15), uint16(5))
	f.Add(AppendReq(nil, &ReqFrame{ID: 5, Mount: "fs::/x", Op: core.OpWrite, Path: long, Key: long, Payload: []byte("tail")}), uint16(7), uint16(100), uint16(1))
	f.Add(AppendReq(nil, &ReqFrame{ID: 6, Mount: "fs::/x", Op: core.OpRead, Path: long}), uint16(3), uint16(0), uint16(0))
	f.Add(AppendResp(nil, &RespFrame{ID: 7, Err: long}), uint16(513), uint16(600), uint16(headWindow+40))
	f.Add(AppendResp(nil, &RespFrame{ID: 8, Err: long, Value: []byte(long)}), uint16(64), uint16(16), uint16(headWindow))
	f.Add(AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: "seed"}), uint16(2), uint16(0), uint16(4))
	f.Add([]byte{frameMagic, FrameResp, 4, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0}, uint16(1), uint16(0), uint16(2))

	f.Fuzz(func(t *testing.T, data []byte, chunk, bufSize, errLen uint16) {
		const maxPayload = 1 << 16
		fr := newFrameReader(bufio.NewReaderSize(&chunkReader{b: data, chunk: int(chunk) + 1}, int(bufSize)), maxPayload)
		rest := data
		var wants, gots []wireFrame
		for i := 0; i < 16; i++ {
			want, nrest, wantErr := decodeWhole(rest, maxPayload)
			got, gotErr := readStreamed(fr)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("frame %d: whole-buffer decode says %v, stream reader says %v", i, wantErr, gotErr)
			}
			if wantErr != nil {
				break
			}
			if !want.equal(&got) {
				t.Fatalf("frame %d: stream reader decoded %+v, whole-buffer decode %+v", i, got, want)
			}
			wants, gots = append(wants, want), append(gots, got)
			rest = nrest
		}
		for i := range gots {
			if !wants[i].equal(&gots[i]) {
				t.Fatalf("frame %d reads %+v once later frames are decoded, whole-buffer decode %+v", i, gots[i], wants[i])
			}
		}

		cut := min(int(errLen), len(data))
		resps := []RespFrame{
			{ID: uint64(chunk)<<16 | uint64(bufSize), OK: cut == 0, Result: int64(len(data)) - int64(errLen), Err: string(data[:cut]), Value: data[cut:]},
			{ID: uint64(errLen)},                  // no bulk: shares an element of the vector
			{ID: 1, OK: true, Value: data[:cut]},  // bulk again
			{ID: 1<<64 - 1, Result: -1, Err: "e"}, // trailing head-only frame
		}
		var g frameGather
		var want []byte
		for i := range resps {
			g.resp(&resps[i])
			want = AppendResp(want, &resps[i])
		}
		if g.size() != len(want) || g.frames != len(resps) {
			t.Fatalf("gather counts %d bytes in %d frames, AppendResp made %d in %d", g.size(), g.frames, len(want), len(resps))
		}
		var got bytes.Buffer
		if err := g.writeTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("gather wrote %x, AppendResp made %x", got.Bytes(), want)
		}
	})
}

// FuzzRouteHead holds the router's head path to the server's.
//
// Accept: over any bytes, routeHead.decodeHead fails where
// ReqFrame.decodeHead fails and otherwise reads the same id, tenant and
// mount, the same number of bytes and the same bulk length.
//
// Forward: for a request AppendReq encodes, read off a stream as the router
// reads it, the frame the router forwards is byte for byte AppendReq of the
// request under the new id, with the connection's tenant in place of an
// empty one.
func FuzzRouteHead(f *testing.F) {
	long := strings.Repeat("p", headWindow+40)
	req := AppendReq(nil, &ReqFrame{ID: 9, Tenant: "t", Mount: "kv::/b", Op: core.OpPut, Key: "k", Offset: -1, Size: 3, Prog: "count", Payload: []byte("abc")})
	f.Add(req[wireFmt.Header():], uint64(1), "", "kv::/bench", byte(core.OpGet), "", "key-1", int64(0), int64(4096), "", []byte{}, "raw")
	f.Add([]byte{1, 0, 0, byte(maxWireOp) + 1, 0, 0, 0, 0, 0, 0}, uint64(1<<63), "acme", "fs::/x", byte(core.OpWrite), long, "", int64(-7), int64(1<<40), "sum u32@0", []byte("data"), "")
	f.Fuzz(func(t *testing.T, data []byte, id uint64, tenant, mount string, op byte, path, key string, off, size int64, prog string, payload []byte, def string) {
		var rf ReqFrame
		var h routeHead
		dr, dh := codec.NewDecoder(data), codec.NewDecoder(data)
		nr, nh := rf.decodeHead(&dr), h.decodeHead(&dh)
		if dr.Failed() != dh.Failed() {
			t.Fatalf("%x: ReqFrame.decodeHead fails %v, routeHead.decodeHead %v", data, dr.Failed(), dh.Failed())
		}
		dm := codec.NewDecoder(h.fields)
		if !dr.Failed() && (h.id != rf.ID || string(h.tenant) != rf.Tenant || string(dm.Bytes()) != rf.Mount || dh.Off() != dr.Off() || nh != nr) {
			t.Fatalf("%x: routeHead read id %d, tenant %q, %d bytes, bulk %d; ReqFrame %+v, %d bytes, bulk %d",
				data, h.id, h.tenant, dh.Off(), nh, rf, dr.Off(), nr)
		}

		rf = ReqFrame{ID: id, Tenant: tenant, Mount: mount, Op: core.Op(op % byte(maxWireOp+1)), Path: path, Key: key, Offset: off, Size: size, Prog: prog, Payload: payload}
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(AppendReq(nil, &rf))), 0)
		if _, _, err := fr.next(); err != nil {
			t.Fatalf("next: %v", err)
		}
		n, err := fr.head(&h)
		if err != nil {
			t.Fatalf("head of %+v: %v", rf, err)
		}
		got := make([]byte, n)
		if err := fr.bulk(got); err != nil {
			t.Fatalf("bulk of %+v: %v", rf, err)
		}
		gid := id ^ 0x5555
		fwd := append(wireFmt.Seal(h.appendHead(nil, gid, []byte(def), n), 0, got), got...)
		rf.ID = gid
		if rf.Tenant == "" {
			rf.Tenant = def
		}
		if want := AppendReq(nil, &rf); !bytes.Equal(fwd, want) {
			t.Fatalf("the router forwards %x, AppendReq makes %x", fwd, want)
		}
	})
}
