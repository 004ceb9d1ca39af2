// Package serve is the LabStor network serving front end: a TCP wire
// protocol that lets remote clients hit the batched/zero-copy submission
// fast path, with per-tenant admission control (token-bucket rate limits
// and inflight caps fed by the orchestrator's demand estimates) and a
// consistent-hash shard router for scale-out across runtime instances.
//
// The wire format is a length-prefixed, CRC-framed binary RPC: the typed
// internal/codec frame, the one the write-ahead log writes untyped on the
// device, applied to a socket stream. Every frame is
//
//	[magic 0xAB][type 1B][payload length 4B LE][payload CRC32 (IEEE) 4B LE][payload]
//
// and payloads are fixed internal/codec records per frame type. A CRC
// mismatch, oversized length, unknown frame type or malformed payload is a
// protocol error: the peer that detects it closes the connection (a TCP
// stream that has lost framing cannot be resynchronized).
//
// A request's Payload and a response's Value — the bulk field — are always
// the last field of their frame, so a frame is a small head (frame header,
// fixed fields, bulk length) followed by the bulk bytes. Both directions use
// that: frameGather sends heads from a scratch and bulk fields from where
// they lie in one vectored write, and frameReader parses the head and then
// reads the bulk straight into memory its caller picks. The CRC chains over
// head then bulk, so neither side needs the frame in one piece.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"unsafe"

	"labstor/internal/codec"
	"labstor/internal/core"
)

// Frame types.
const (
	// FrameHello opens a connection: proto version + default tenant. The
	// server answers with its own Hello (the ack) before any requests flow.
	FrameHello = byte(iota + 1)
	// FrameReq carries one RPC request (client -> server).
	FrameReq
	// FrameResp carries one RPC completion (server -> client).
	FrameResp
	// FrameBusy is an explicit admission-control rejection: the request
	// identified by ID was not queued and should be retried after the hint.
	FrameBusy
	// FramePing / FramePong are liveness probes (id echoed back).
	FramePing
	FramePong
)

// ProtoVersion is the current wire protocol version, carried in Hello.
// Version 2 added the ReqFrame Prog field (computation pushdown: a
// program-ref so clients move results, not bytes, over the wire).
const ProtoVersion = 2

const (
	frameMagic = 0xAB

	// DefaultMaxPayload bounds a frame payload (data + headers); a length
	// field above the limit is treated as a torn/hostile frame. 4 MiB covers
	// the largest arena buffer class (2 MiB) with room for headers.
	DefaultMaxPayload = 4 << 20
)

// Busy reasons (RespFrame-free rejections carried by FrameBusy).
const (
	// BusyRate: the tenant's token bucket is empty.
	BusyRate = byte(iota + 1)
	// BusyInflight: the tenant is at its inflight cap.
	BusyInflight
	// BusyOverload: the runtime's measured demand exceeds capacity and the
	// server is shedding load beyond per-tenant budgets.
	BusyOverload
)

// BusyReasonString names a busy reason for logs and metrics.
func BusyReasonString(r byte) string {
	switch r {
	case BusyRate:
		return "rate"
	case BusyInflight:
		return "inflight"
	case BusyOverload:
		return "overload"
	}
	return fmt.Sprintf("reason(%d)", r)
}

// wireFmt frames every message.
var wireFmt = codec.Frame{Magic: frameMagic, Typed: true}

// Errors surfaced by the codec.
var (
	ErrTornFrame  = errors.New("serve: torn or corrupt frame")
	ErrFrameSize  = errors.New("serve: frame exceeds max payload")
	ErrBadPayload = errors.New("serve: malformed frame payload")
)

// HelloFrame is the connection-open handshake.
type HelloFrame struct {
	Version uint64
	// Tenant is the connection's default tenant; a ReqFrame with an empty
	// Tenant inherits it.
	Tenant string
}

// ReqFrame is one RPC request: the fields the ISSUE's RPC contract names —
// request id, tenant, stack (mount), op, key/offset — plus the payload.
type ReqFrame struct {
	ID     uint64
	Tenant string // empty = connection default
	Mount  string // namespace path the request is routed by
	Op     core.Op
	Path   string // file-interface operand (may be empty)
	Key    string // KV-interface operand (may be empty)
	Offset int64
	Size   int64
	// Prog is a pushdown program reference (name or content-hash ref) for
	// OpScan requests: the server runs the registered program where the
	// data lives and returns only matches/aggregates, so bytes-on-wire is
	// result-sized. Subject to the server's pushdown policy (per-tenant
	// allow-lists + budget caps); empty means no program.
	Prog string
	// Payload is the write-side data and the frame's last field. DecodeReq
	// aliases the decode buffer; a frameReader leaves it nil and reads the
	// bytes into memory its caller picks.
	Payload []byte

	// keys, when set, is where decodeHead copies the key and the mount to
	// instead of allocating a string for each; the server sets its
	// connection's slab. Encoding ignores it.
	keys *keySlab
}

// RespFrame is one RPC completion.
type RespFrame struct {
	ID     uint64
	OK     bool
	Result int64
	Err    string // empty when OK
	// Value is the read-side data and the frame's last field (DecodeResp
	// aliases the decode buffer; a frameReader leaves it nil, as for Payload).
	Value []byte
}

// BusyFrame is an admission rejection for one request.
type BusyFrame struct {
	ID      uint64
	Reason  byte
	RetryNs int64 // suggested client backoff (0 = immediate retry is fine)
}

// maxWireOp bounds the op codes accepted off the wire (everything the
// request model defines today; unknown codes are a payload error, so a
// future op added without bumping this is rejected loudly, not executed).
const maxWireOp = core.OpScan

// AppendHello encodes a Hello frame.
func AppendHello(dst []byte, h *HelloFrame) []byte {
	start := len(dst)
	dst = wireFmt.Reserve(dst, FrameHello)
	dst = codec.AppendUvarint(dst, h.Version)
	dst = codec.AppendStr(dst, h.Tenant)
	return wireFmt.Seal(dst, start, nil)
}

// appendReqHead appends the head of a request frame whose payload is n
// bytes: everything of the frame but the payload itself. The header stays
// open until Seal is given the payload.
func appendReqHead(dst []byte, r *ReqFrame, n int) []byte {
	dst = wireFmt.Reserve(dst, FrameReq)
	dst = codec.AppendUvarint(dst, r.ID)
	dst = codec.AppendStr(dst, r.Tenant)
	dst = codec.AppendStr(dst, r.Mount)
	dst = append(dst, byte(r.Op))
	dst = codec.AppendStr(dst, r.Path)
	dst = codec.AppendStr(dst, r.Key)
	dst = codec.AppendVarint(dst, r.Offset)
	dst = codec.AppendVarint(dst, r.Size)
	dst = codec.AppendStr(dst, r.Prog)
	return codec.AppendUvarint(dst, uint64(n))
}

// appendRespHead is appendReqHead for a response frame with an n-byte value.
func appendRespHead(dst []byte, r *RespFrame, n int) []byte {
	dst = wireFmt.Reserve(dst, FrameResp)
	dst = codec.AppendUvarint(dst, r.ID)
	ok := byte(0)
	if r.OK {
		ok = 1
	}
	dst = append(dst, ok)
	dst = codec.AppendVarint(dst, r.Result)
	dst = codec.AppendStr(dst, r.Err)
	return codec.AppendUvarint(dst, uint64(n))
}

// AppendReq encodes a request frame.
func AppendReq(dst []byte, r *ReqFrame) []byte {
	start := len(dst)
	dst = wireFmt.Seal(appendReqHead(dst, r, len(r.Payload)), start, r.Payload)
	return append(dst, r.Payload...)
}

// AppendResp encodes a response frame.
func AppendResp(dst []byte, r *RespFrame) []byte {
	start := len(dst)
	dst = wireFmt.Seal(appendRespHead(dst, r, len(r.Value)), start, r.Value)
	return append(dst, r.Value...)
}

// writeReq writes a request frame into w: the head, encoded into scratch
// (returned for reuse), then the payload from where it lies — so the payload
// is copied once, into w's buffer, and not at all when it is larger than
// that buffer.
func writeReq(w *bufio.Writer, scratch []byte, r *ReqFrame) ([]byte, error) {
	scratch = wireFmt.Seal(appendReqHead(scratch[:0], r, len(r.Payload)), 0, r.Payload)
	_, err := w.Write(scratch)
	if err == nil {
		_, err = w.Write(r.Payload)
	}
	return scratch, err
}

// AppendBusy encodes a busy frame.
func AppendBusy(dst []byte, b *BusyFrame) []byte {
	start := len(dst)
	dst = wireFmt.Reserve(dst, FrameBusy)
	dst = codec.AppendUvarint(dst, b.ID)
	dst = append(dst, b.Reason)
	dst = codec.AppendVarint(dst, b.RetryNs)
	return wireFmt.Seal(dst, start, nil)
}

// AppendPing encodes a ping (or pong, by type) frame.
func AppendPing(dst []byte, typ byte, id uint64) []byte {
	start := len(dst)
	dst = wireFmt.Reserve(dst, typ)
	dst = codec.AppendUvarint(dst, id)
	return wireFmt.Seal(dst, start, nil)
}

// frameGather collects frames for one vectored write. Heads are encoded
// back to back into one reused scratch; a bulk field is not copied but
// referenced where it lies, so it must stay unchanged until writeTo returns.
// The vector alternates runs of head bytes with bulk fields — head₀, value₀,
// head₁, value₁, … — and frames without a bulk field extend the run they
// follow instead of adding an element.
type frameGather struct {
	head   []byte
	cuts   []gatherCut
	vec    net.Buffers // the vector's backing array, kept between writes
	out    net.Buffers // what WriteTo is handed: it consumes its receiver
	frames int
	bulk   int // bytes in the bulk fields referenced
}

// gatherCut is a bulk field and where it goes: after head[:at].
type gatherCut struct {
	at   int
	bulk []byte
}

// resp adds a response frame; r.Value is referenced, not copied.
func (g *frameGather) resp(r *RespFrame) {
	start := len(g.head)
	g.head = wireFmt.Seal(appendRespHead(g.head, r, len(r.Value)), start, r.Value)
	g.frames++
	if len(r.Value) > 0 {
		g.cuts = append(g.cuts, gatherCut{at: len(g.head), bulk: r.Value})
		g.bulk += len(r.Value)
	}
}

// whole adds one already-encoded frame, copying it.
func (g *frameGather) whole(frame []byte) {
	g.head = append(g.head, frame...)
	g.frames++
}

// size is the number of bytes writeTo would write.
func (g *frameGather) size() int { return len(g.head) + g.bulk }

// writeTo writes every gathered frame to w — one writev when w is a TCP
// connection — and empties the gather.
func (g *frameGather) writeTo(w io.Writer) error {
	vec, at := g.vec[:0], 0
	for _, c := range g.cuts {
		vec = append(vec, g.head[at:c.at], c.bulk)
		at = c.at
	}
	if at < len(g.head) {
		vec = append(vec, g.head[at:])
	}
	g.vec, g.out = vec, vec
	_, err := g.out.WriteTo(w)
	g.reset()
	return err
}

// reset empties the gather, dropping its references to bulk fields.
func (g *frameGather) reset() {
	clear(g.cuts)
	clear(g.vec)
	g.head, g.cuts, g.out = g.head[:0], g.cuts[:0], nil
	g.frames, g.bulk = 0, 0
}

// parseHeader checks a frame header — magic, type, payload length against
// maxPayload — and returns the payload's length and CRC.
func parseHeader(hdr []byte, maxPayload int) (typ byte, plen int, crc uint32, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	typ, n, crc, ok := wireFmt.Parse(hdr)
	if !ok || typ == 0 || typ > FramePong {
		return 0, 0, 0, ErrTornFrame
	}
	if plen = int(n); plen > maxPayload {
		return 0, 0, 0, ErrFrameSize
	}
	return typ, plen, crc, nil
}

// DecodeFrame splits the first frame off b: type, payload (aliasing b) and
// the remaining bytes. Bad magic or type, a short header or body, or a CRC
// mismatch is ErrTornFrame; an oversized length is ErrFrameSize.
func DecodeFrame(b []byte, maxPayload int) (typ byte, payload, rest []byte, err error) {
	typ, plen, crc, err := parseHeader(b, maxPayload)
	if err != nil {
		return 0, nil, b, err
	}
	payload, ok := wireFmt.Payload(b, uint32(plen), crc)
	if !ok {
		return 0, nil, b, ErrTornFrame
	}
	return typ, payload, b[wireFmt.Header()+plen:], nil
}

// headWindow is how much of a payload frameReader looks at to find the end
// of the head. Heads are tens of bytes; one that does not fit (a very long
// key, path or error string) takes the staged path instead.
const headWindow = 512

// frameReader reads frames off a stream. After next, a frame that carries no
// bulk field is taken whole with payload; a request or response is taken in
// two steps, head then bulk, so that the bulk field goes from the stream
// straight into memory the caller picks once it knows the length. The
// accept/reject rules are those of DecodeFrame followed by the payload
// decoder: a frame is good only if its fields parse, they account for
// exactly the payload length, and the CRC over the whole payload matches.
type frameReader struct {
	br  *bufio.Reader
	max int
	buf []byte // staging for whole payloads, reused

	left   int           // payload bytes of the current frame still on the stream
	want   uint32        // the header's CRC of the whole payload
	sum    uint32        // CRC of the head, set by head for bulk to continue
	staged []byte        // the bulk field, non-nil when head had to stage the frame
	dec    codec.Decoder // head's decoder: here, not on its stack, because an interface call takes its address
	keys   keySlab       // the connection's request keys and mounts, for a ReqFrame whose keys point here
}

func newFrameReader(br *bufio.Reader, maxPayload int) *frameReader {
	return &frameReader{br: br, max: maxPayload}
}

// midFrame turns an end of stream inside a frame into io.ErrUnexpectedEOF;
// io.EOF is kept for a stream that ends between frames.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// next reads a frame header and returns the frame's type and payload length.
func (fr *frameReader) next() (typ byte, plen int, err error) {
	hdr, err := fr.br.Peek(wireFmt.Header())
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return 0, 0, err
	}
	typ, plen, crc, err := parseHeader(hdr, fr.max)
	if err != nil {
		return 0, 0, err
	}
	fr.br.Discard(len(hdr)) // cannot fail: the bytes were just peeked
	fr.left, fr.want, fr.staged = plen, crc, nil
	return typ, plen, nil
}

// payload reads the current frame's whole payload into the staging buffer
// and checks the CRC. The slice is good until the next call.
func (fr *frameReader) payload() ([]byte, error) {
	if cap(fr.buf) < fr.left {
		fr.buf = make([]byte, fr.left)
	}
	p := fr.buf[:fr.left]
	if _, err := io.ReadFull(fr.br, p); err != nil {
		return nil, midFrame(err)
	}
	fr.left = 0
	if codec.Checksum(0, p) != fr.want {
		return nil, ErrTornFrame
	}
	return p, nil
}

// hello reads one frame, which must be a Hello.
func (fr *frameReader) hello() (HelloFrame, error) {
	typ, _, err := fr.next()
	if err != nil {
		return HelloFrame{}, err
	}
	if typ != FrameHello {
		return HelloFrame{}, fmt.Errorf("serve: frame type %d where a hello was expected", typ)
	}
	return decodePayload(fr, DecodeHello)
}

// decodePayload reads the current frame's whole payload and decodes it
// with dec, the decoder of a frame type without a bulk field.
func decodePayload[T any](fr *frameReader, dec func([]byte) (T, error)) (T, error) {
	p, err := fr.payload()
	if err != nil {
		var zero T
		return zero, err
	}
	return dec(p)
}

// bulkFrame is a frame type whose last field is bulk data: decodeHead
// decodes every field before it, leaves the bulk field nil and returns the
// length the payload claims for it. d.Off() is then where the bulk starts.
type bulkFrame interface {
	decodeHead(d *codec.Decoder) uint64
}

// head decodes the current frame's fields into f and returns the length of
// its bulk field, which the caller must then collect with bulk — also when
// the length is 0, because that is where the CRC is checked.
func (fr *frameReader) head(f bulkFrame) (n int, err error) {
	w := min(fr.left, headWindow, fr.br.Size())
	win, err := fr.br.Peek(w)
	if err != nil {
		return 0, midFrame(err)
	}
	d := &fr.dec
	*d = codec.NewDecoder(win)
	n64 := f.decodeHead(d)
	switch {
	case !d.Failed():
		at := d.Off()
		if n64 != uint64(fr.left-at) {
			return 0, ErrBadPayload
		}
		fr.sum = codec.Checksum(0, win[:at])
		fr.br.Discard(at)
		fr.left -= at
		return int(n64), nil
	case w == fr.left:
		return 0, ErrBadPayload // the whole payload was in view
	}
	// The head runs past the window: stage the payload whole and decode it
	// there. bulk then copies the field out of the staging buffer.
	p, err := fr.payload()
	if err != nil {
		return 0, err
	}
	*d = codec.NewDecoder(p)
	if fr.staged = d.Bulk(f.decodeHead(d)); d.Failed() {
		return 0, ErrBadPayload
	}
	return len(fr.staged), nil
}

// bulk moves the current frame's bulk field into dst, whose length head
// returned, and checks the frame's CRC.
func (fr *frameReader) bulk(dst []byte) error {
	if fr.staged != nil {
		copy(dst, fr.staged)
		fr.staged = nil
		return nil
	}
	if _, err := io.ReadFull(fr.br, dst); err != nil {
		return midFrame(err)
	}
	fr.left = 0
	if codec.Checksum(fr.sum, dst) != fr.want {
		return ErrTornFrame
	}
	return nil
}

// ReadFrame reads one whole frame from r into buf (growing it as needed)
// and returns the type, the payload (aliasing buf) and the possibly-grown
// buffer. Streaming counterpart of DecodeFrame.
func ReadFrame(r *bufio.Reader, buf []byte, maxPayload int) (typ byte, payload, nbuf []byte, err error) {
	fr := frameReader{br: r, max: maxPayload, buf: buf}
	if typ, _, err = fr.next(); err != nil {
		return 0, nil, buf, err
	}
	if payload, err = fr.payload(); err != nil {
		return 0, nil, fr.buf, err
	}
	return typ, payload, fr.buf, nil
}

// DecodeHello decodes a Hello payload.
func DecodeHello(payload []byte) (HelloFrame, error) {
	var h HelloFrame
	d := codec.NewDecoder(payload)
	h.Version = d.Uvarint()
	h.Tenant = d.Str("")
	if !d.Done() {
		return HelloFrame{}, ErrBadPayload
	}
	return h, nil
}

func (r *ReqFrame) decodeHead(d *codec.Decoder) uint64 {
	r.ID = d.Uvarint()
	r.Tenant = d.Str(r.Tenant)
	r.Mount = r.keys.str(d.Bytes(), r.Mount)
	r.Op = core.Op(d.Byte())
	r.Path = d.Str(r.Path)
	r.Key = r.keys.str(d.Bytes(), r.Key)
	r.Offset = d.Varint()
	r.Size = d.Varint()
	r.Prog = d.Str(r.Prog)
	r.Payload = nil
	if r.Op > maxWireOp {
		d.Fail()
	}
	return d.Uvarint()
}

func (r *RespFrame) decodeHead(d *codec.Decoder) uint64 {
	r.ID = d.Uvarint()
	ok := d.Byte()
	r.OK = ok == 1
	r.Result = d.Varint()
	r.Err = d.Str(r.Err)
	r.Value = nil
	if ok > 1 {
		d.Fail()
	}
	return d.Uvarint()
}

// keySlabSize is the size of one key slab: a few hundred keys of tens of
// bytes each, so the slab's own allocation is a small share of one per
// request.
const keySlabSize = 4 << 10

// keySlab makes strings of request fields without allocating one each: it
// copies them into the unused tail of an append-only byte slab. A full slab
// is replaced by a new one and never written again, so a string made from it
// is immutable and stays valid for as long as anyone holds it — the GC keeps
// the slab alive for it (DESIGN.md §13).
type keySlab struct {
	b []byte
}

// str returns b as a string: last when they are equal, as codec.Decoder.Str
// does, and otherwise a copy in the slab. A nil slab, or a field longer than
// a quarter of one, allocates the string as Decoder.Str does.
func (s *keySlab) str(b []byte, last string) string {
	if string(b) == last {
		return last
	}
	if s == nil || len(b) > keySlabSize/4 {
		return string(b)
	}
	if len(b) == 0 {
		return ""
	}
	if cap(s.b)-len(s.b) < len(b) {
		s.b = make([]byte, 0, keySlabSize)
	}
	at := len(s.b)
	s.b = append(s.b, b...)
	return unsafe.String(&s.b[at], len(b))
}

// DecodeReq decodes a request payload into r. The Payload field aliases the
// input buffer.
func DecodeReq(payload []byte, r *ReqFrame) error {
	d := codec.NewDecoder(payload)
	if r.Payload = d.Bulk(r.decodeHead(&d)); d.Failed() {
		*r = ReqFrame{}
		return ErrBadPayload
	}
	return nil
}

// DecodeResp decodes a response payload into r. Value aliases the input.
func DecodeResp(payload []byte, r *RespFrame) error {
	d := codec.NewDecoder(payload)
	if r.Value = d.Bulk(r.decodeHead(&d)); d.Failed() {
		*r = RespFrame{}
		return ErrBadPayload
	}
	return nil
}

// DecodeBusy decodes a busy payload.
func DecodeBusy(payload []byte) (BusyFrame, error) {
	var b BusyFrame
	d := codec.NewDecoder(payload)
	b.ID = d.Uvarint()
	b.Reason = d.Byte()
	b.RetryNs = d.Varint()
	if !d.Done() || b.Reason < BusyRate || b.Reason > BusyOverload {
		return BusyFrame{}, ErrBadPayload
	}
	return b, nil
}

// DecodePing decodes a ping/pong payload (the echoed id).
func DecodePing(payload []byte) (uint64, error) {
	d := codec.NewDecoder(payload)
	id := d.Uvarint()
	if !d.Done() {
		return 0, ErrBadPayload
	}
	return id, nil
}
