// Package codec owns LabStor's two byte formats. A record is a sequence of
// fields (unsigned varints, zigzag varints, bytes, and strings as a uvarint
// length then the bytes), written with the Append functions and read back
// with a Decoder. A frame wraps one record in a CRC32 envelope:
//
//	[magic][type, typed frames only][payload length 4B LE][payload CRC32 (IEEE) 4B LE][payload]
//
// The write-ahead log frames LabFS and LabKVS metadata records on the device
// (paper §III-E), the serve wire protocol frames RPCs on a TCP stream, and a
// pushdown EmitKV result is a run of records.
package codec

import (
	"encoding/binary"
	"hash/crc32"
)

// AppendUvarint appends v as an unsigned varint field.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a zigzag varint field.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendStr appends s as a string field.
func AppendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Decoder reads a record's fields in order, latching the first malformed
// one: what later reads return is meaningless, and Done and Failed say so.
type Decoder struct {
	b   []byte
	off int
	bad bool
}

// NewDecoder returns a decoder over one record.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Done reports whether every field decoded and the record is used up.
func (d *Decoder) Done() bool { return !d.bad && d.off == len(d.b) }

// Failed reports whether a field failed to decode.
func (d *Decoder) Failed() bool { return d.bad }

// Fail latches the decoder failed: a field parsed but its value is invalid.
func (d *Decoder) Fail() { d.bad = true }

// Off is how many bytes the fields read so far span.
func (d *Decoder) Off() int { return d.off }

// Span returns the encoded bytes of the fields read since Off returned off,
// as a slice of the record.
func (d *Decoder) Span(off int) []byte { return d.b[off:d.off] }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
	} else {
		d.off += n
	}
	return v
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.off >= len(d.b) {
		d.bad = true
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bytes reads a string field as a slice of the record.
func (d *Decoder) Bytes() []byte { return d.take(d.Uvarint()) }

// Str reads a string field. last is what the field held in the record
// decoded before into the same place: an equal string is returned as last,
// not allocated anew (a connection repeats its mount and tenant frame after
// frame).
func (d *Decoder) Str(last string) string {
	b := d.Bytes()
	if string(b) == last {
		return last
	}
	return string(b)
}

// Bulk reads the record's last field, whose length n was decoded before it:
// the field is exactly the rest of the record, returned as a slice of it.
func (d *Decoder) Bulk(n uint64) []byte {
	if n != uint64(len(d.b)-d.off) {
		d.bad = true
	}
	return d.take(n)
}

func (d *Decoder) take(n uint64) []byte {
	if d.bad || n > uint64(len(d.b)-d.off) {
		d.bad = true
		return nil
	}
	end := d.off + int(n)
	b := d.b[d.off:end:end]
	d.off = end
	return b
}

// Frame is one frame format: its magic byte and whether a type byte follows.
type Frame struct {
	Magic byte
	Typed bool
}

// Header is the length of the frame header.
func (f Frame) Header() int {
	if f.Typed {
		return 10
	}
	return 9
}

// Reserve appends the header of a frame of type typ (ignored by an untyped
// frame) with its length and CRC still zero. Seal fills them in once the
// payload is known.
func (f Frame) Reserve(dst []byte, typ byte) []byte {
	if f.Typed {
		return append(dst, f.Magic, typ, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	return append(dst, f.Magic, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Seal completes the header of the frame that starts at dst[start]. Its
// payload is dst past the header followed by bulk, which need not be in
// dst: the length covers both and the CRC chains over one, then the other.
func (f Frame) Seal(dst []byte, start int, bulk []byte) []byte {
	at := start + f.Header()
	head := dst[at:]
	binary.LittleEndian.PutUint32(dst[at-8:], uint32(len(head)+len(bulk)))
	binary.LittleEndian.PutUint32(dst[at-4:], Checksum(Checksum(0, head), bulk))
	return dst
}

// Parse reads the frame header at the start of hdr; ok is false when hdr
// is shorter than a header or the magic is wrong.
func (f Frame) Parse(hdr []byte) (typ byte, plen, crc uint32, ok bool) {
	at := f.Header()
	if len(hdr) < at || hdr[0] != f.Magic {
		return 0, 0, 0, false
	}
	if f.Typed {
		typ = hdr[1]
	}
	return typ, binary.LittleEndian.Uint32(hdr[at-8:]), binary.LittleEndian.Uint32(hdr[at-4:]), true
}

// Payload returns the payload of the frame at the start of b, given the
// length and CRC its header holds; ok is false when b ends inside the frame
// or the CRC does not match.
func (f Frame) Payload(b []byte, plen, crc uint32) (p []byte, ok bool) {
	at := f.Header()
	if len(b) < at || uint64(plen) > uint64(len(b)-at) {
		return nil, false
	}
	p = b[at : at+int(plen)]
	return p, Checksum(0, p) == crc
}

// Checksum extends the CRC32 (IEEE) crc, 0 to start, over p; a payload
// summed in pieces, head then bulk, sums to what it does whole.
func Checksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, crc32.IEEETable, p) }
