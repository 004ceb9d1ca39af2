package serve

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"testing"

	"labstor/internal/core"
)

// wireGolden is one proto-v2 frame, byte for byte as the protocol puts it
// on the wire. The bytes are fixed: a codec change that moves one of them
// breaks every peer that speaks version 2.
type wireGolden struct {
	name  string
	frame wireFrame
	hex   string
}

func wireGoldens() []wireGolden {
	return []wireGolden{
		{"hello", wireFrame{typ: FrameHello, hello: HelloFrame{Version: ProtoVersion, Tenant: "acme"}},
			"ab01060000004ac30a2d020461636d65"},
		{"req with payload", wireFrame{typ: FrameReq, req: ReqFrame{
			ID: 42, Tenant: "acme", Mount: "kv::/b", Op: core.OpPut, Key: "user:7",
			Offset: -512, Size: 5, Payload: []byte("hello"),
		}}, "ab0220000000e98adad02a0461636d65066b763a3a2f620f0006757365723a37ff070a000568656c6c6f"},
		{"req without payload", wireFrame{typ: FrameReq, req: ReqFrame{
			ID: 1 << 40, Mount: "fs::/data", Op: core.OpRead, Path: "/a/b.txt",
			Offset: 1 << 20, Size: 4096,
		}}, "ab022400000054c49692808080808020000966733a3a2f6461746104082f612f622e747874008080800180400000"},
		{"req with prog", wireFrame{typ: FrameReq, req: ReqFrame{
			ID: 43, Tenant: "acme", Mount: "kv::/b", Op: core.OpScan, Key: "user:",
			Prog: "pd:0011223344556677",
		}}, "ab022c000000d4e37b052b0461636d65066b763a3a2f62190005757365723a00001370643a3030313132323333343435353636373700"},
		{"resp ok with value", wireFrame{typ: FrameResp, resp: RespFrame{ID: 42, OK: true, Result: 5, Value: []byte("world")}},
			"ab030a0000000984d6912a010a0005776f726c64"},
		{"resp error", wireFrame{typ: FrameResp, resp: RespFrame{ID: 43, Result: -1, Err: "labkvs: no such key"}},
			"ab0318000000452cc1662b0001136c61626b76733a206e6f2073756368206b657900"},
		{"busy", wireFrame{typ: FrameBusy, busy: BusyFrame{ID: 44, Reason: BusyInflight, RetryNs: 50000}},
			"ab0405000000c0e32cd62c02a08d06"},
		{"ping", wireFrame{typ: FramePing, ping: 7}, "ab05010000002e7a664c07"},
		{"pong", wireFrame{typ: FramePong, ping: 1<<64 - 1}, "ab060a000000476ce155ffffffffffffffffff01"},
	}
}

// appendGolden encodes f with the Append function of its type.
func appendGolden(dst []byte, f *wireFrame) []byte {
	switch f.typ {
	case FrameHello:
		return AppendHello(dst, &f.hello)
	case FrameReq:
		return AppendReq(dst, &f.req)
	case FrameResp:
		return AppendResp(dst, &f.resp)
	case FrameBusy:
		return AppendBusy(dst, &f.busy)
	}
	return AppendPing(dst, f.typ, f.ping)
}

// TestWireGoldens pins proto v2: every frame type encodes to its golden
// bytes on each encode path, and the golden bytes decode to the same fields
// whole and streamed.
func TestWireGoldens(t *testing.T) {
	var stream []byte
	for _, g := range wireGoldens() {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := appendGolden(nil, &g.frame); !bytes.Equal(got, want) {
			t.Errorf("%s: encodes to\n%x\nwant\n%x", g.name, got, want)
			continue
		}
		switch g.frame.typ {
		case FrameReq:
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			if _, err := writeReq(w, nil, &g.frame.req); err != nil || w.Flush() != nil {
				t.Fatalf("%s: writeReq: %v", g.name, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s: writeReq wrote %x", g.name, out.Bytes())
			}
		case FrameResp:
			var fg frameGather
			fg.resp(&g.frame.resp)
			var out bytes.Buffer
			if err := fg.writeTo(&out); err != nil || !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s: frameGather wrote %x (%v)", g.name, out.Bytes(), err)
			}
		}
		got, rest, err := decodeWhole(want, 0)
		if err != nil || len(rest) != 0 || !got.equal(&g.frame) {
			t.Errorf("%s: decodes to %+v, rest %d, %v", g.name, got, len(rest), err)
		}
		stream = append(stream, want...)
	}
	// A 16-byte reader stages every head longer than that; 4096 bytes see
	// each head whole in the window.
	for _, size := range []int{16, 4096} {
		fr := newFrameReader(bufio.NewReaderSize(&chunkReader{b: stream, chunk: 1}, size), 0)
		for _, g := range wireGoldens() {
			got, err := readStreamed(fr)
			if err != nil || !got.equal(&g.frame) {
				t.Fatalf("buffer %d, %s: streams to %+v, %v", size, g.name, got, err)
			}
		}
		if _, _, err := fr.next(); err != io.EOF {
			t.Fatalf("buffer %d: after the last golden: %v", size, err)
		}
	}
}
