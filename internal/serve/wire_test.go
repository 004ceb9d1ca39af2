package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"labstor/internal/core"
)

func TestReqRoundTrip(t *testing.T) {
	in := ReqFrame{
		ID: 42, Tenant: "gold", Mount: "kv::/bench", Op: core.OpPut,
		Path: "a/b.txt", Key: "user:7", Offset: -512, Size: 4096,
		Payload: []byte("hello payload"),
	}
	b := AppendReq(nil, &in)
	typ, payload, rest, err := DecodeFrame(b, 0)
	if err != nil || typ != FrameReq || len(rest) != 0 {
		t.Fatalf("DecodeFrame: typ=%d rest=%d err=%v", typ, len(rest), err)
	}
	var out ReqFrame
	if err := DecodeReq(payload, &out); err != nil {
		t.Fatalf("DecodeReq: %v", err)
	}
	if out.ID != in.ID || out.Tenant != in.Tenant || out.Mount != in.Mount ||
		out.Op != in.Op || out.Path != in.Path || out.Key != in.Key ||
		out.Offset != in.Offset || out.Size != in.Size || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestRespBusyHelloRoundTrip(t *testing.T) {
	b := AppendHello(nil, &HelloFrame{Version: ProtoVersion, Tenant: "t1"})
	b = AppendResp(b, &RespFrame{ID: 7, OK: true, Result: 99, Value: []byte{1, 2, 3}})
	b = AppendResp(b, &RespFrame{ID: 8, OK: false, Err: "no such key"})
	b = AppendBusy(b, &BusyFrame{ID: 9, Reason: BusyRate, RetryNs: 1500})
	b = AppendPing(b, FramePing, 11)

	typ, payload, b, err := DecodeFrame(b, 0)
	if err != nil || typ != FrameHello {
		t.Fatalf("hello: typ=%d err=%v", typ, err)
	}
	h, err := DecodeHello(payload)
	if err != nil || h.Version != ProtoVersion || h.Tenant != "t1" {
		t.Fatalf("hello decode: %+v err=%v", h, err)
	}

	typ, payload, b, err = DecodeFrame(b, 0)
	if err != nil || typ != FrameResp {
		t.Fatalf("resp1: %v", err)
	}
	var r RespFrame
	if err := DecodeResp(payload, &r); err != nil || !r.OK || r.ID != 7 || r.Result != 99 || !bytes.Equal(r.Value, []byte{1, 2, 3}) {
		t.Fatalf("resp1 decode: %+v err=%v", r, err)
	}

	typ, payload, b, err = DecodeFrame(b, 0)
	if err != nil || typ != FrameResp {
		t.Fatalf("resp2: %v", err)
	}
	if err := DecodeResp(payload, &r); err != nil || r.OK || r.Err != "no such key" {
		t.Fatalf("resp2 decode: %+v err=%v", r, err)
	}

	typ, payload, b, err = DecodeFrame(b, 0)
	if err != nil || typ != FrameBusy {
		t.Fatalf("busy: %v", err)
	}
	bf, err := DecodeBusy(payload)
	if err != nil || bf.ID != 9 || bf.Reason != BusyRate || bf.RetryNs != 1500 {
		t.Fatalf("busy decode: %+v err=%v", bf, err)
	}

	typ, payload, b, err = DecodeFrame(b, 0)
	if err != nil || typ != FramePing {
		t.Fatalf("ping: %v", err)
	}
	if id, err := DecodePing(payload); err != nil || id != 11 {
		t.Fatalf("ping decode: id=%d err=%v", id, err)
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
}

func TestDecodeFrameTorn(t *testing.T) {
	good := AppendReq(nil, &ReqFrame{ID: 1, Mount: "m", Op: core.OpNop})

	// Truncations at every length short of the full frame are torn.
	for n := 0; n < len(good); n++ {
		if _, _, _, err := DecodeFrame(good[:n], 0); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Any single-byte corruption is detected (magic, type, length, CRC or
	// payload — the CRC catches the payload flips).
	for i := 0; i < len(good); i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		_, _, _, err := DecodeFrame(bad, 0)
		if err == nil {
			// A corrupted length that still parses must not read past the
			// buffer; DecodeFrame returning nil error here means the flip
			// produced a different valid frame, which CRC makes impossible.
			t.Fatalf("corruption at byte %d decoded", i)
		}
	}
}

func TestDecodeFrameSizeLimit(t *testing.T) {
	big := AppendReq(nil, &ReqFrame{ID: 1, Mount: "m", Payload: make([]byte, 2048)})
	if _, _, _, err := DecodeFrame(big, 1024); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("want ErrFrameSize, got %v", err)
	}
	if _, _, _, err := DecodeFrame(big, 4096); err != nil {
		t.Fatalf("within limit: %v", err)
	}
}

func TestDecodeReqRejectsUnknownOp(t *testing.T) {
	b := AppendReq(nil, &ReqFrame{ID: 1, Mount: "m", Op: core.Op(200)})
	_, payload, _, err := DecodeFrame(b, 0)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	var r ReqFrame
	if err := DecodeReq(payload, &r); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("want ErrBadPayload for op 200, got %v", err)
	}
}

func TestReadFrameStream(t *testing.T) {
	var wire []byte
	want := []uint64{1, 2, 3, 4}
	for _, id := range want {
		wire = AppendReq(wire, &ReqFrame{ID: id, Mount: "fs::/x", Op: core.OpRead, Size: 64})
	}
	fr := newFrameReader(bufio.NewReaderSize(bytes.NewReader(wire), 16), 0) // tiny buffer forces refills
	for _, id := range want {
		typ, _, err := fr.next()
		if err != nil || typ != FrameReq {
			t.Fatalf("next: typ=%d err=%v", typ, err)
		}
		payload, err := fr.payload()
		if err != nil {
			t.Fatalf("payload: %v", err)
		}
		var r ReqFrame
		if err := DecodeReq(payload, &r); err != nil || r.ID != id {
			t.Fatalf("id=%d want %d err=%v", r.ID, id, err)
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReadFrameCorrupt(t *testing.T) {
	wire := AppendReq(nil, &ReqFrame{ID: 1, Mount: "m", Payload: []byte("abcdef")})
	wire[len(wire)-1] ^= 0xFF
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(wire)), 0)
	if _, _, err := fr.next(); err != nil {
		t.Fatalf("next: %v", err)
	}
	if _, err := fr.payload(); !errors.Is(err, ErrTornFrame) {
		t.Fatalf("want ErrTornFrame, got %v", err)
	}
}
