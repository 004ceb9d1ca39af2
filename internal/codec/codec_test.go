package codec

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

// field is one record field of any kind: 0 uvarint, 1 varint, 2 byte,
// 3 string, 4 byte string.
type field struct {
	kind byte
	u    uint64
	s    string
}

// fieldsOf cuts a field sequence from data: a kind byte, then for a number
// up to 8 value bytes and for a string a length byte and up to that many
// bytes. What is left over becomes the bulk field.
func fieldsOf(data []byte) (fs []field, bulk []byte) {
	for len(data) > 1 && len(fs) < 32 {
		f := field{kind: data[0] % 5}
		data = data[1:]
		switch f.kind {
		case 0, 1:
			var v [8]byte
			n := copy(v[:], data)
			f.u, data = binary.LittleEndian.Uint64(v[:]), data[n:]
		case 2:
			f.u, data = uint64(data[0]), data[1:]
		default:
			n := min(int(data[0])%40, len(data)-1)
			f.s, data = string(data[1:1+n]), data[1+n:]
		}
		fs = append(fs, f)
	}
	return fs, data
}

func appendFields(dst []byte, fs []field, bulk []byte) []byte {
	for _, f := range fs {
		switch f.kind {
		case 0:
			dst = AppendUvarint(dst, f.u)
		case 1:
			dst = AppendVarint(dst, int64(f.u))
		case 2:
			dst = append(dst, byte(f.u))
		default:
			dst = AppendStr(dst, f.s)
		}
	}
	return append(AppendUvarint(dst, uint64(len(bulk))), bulk...)
}

// decodeFields reads fs's kinds back from rec into got, passing each string
// field its value in last, and reports whether the record decoded whole.
func decodeFields(rec []byte, fs []field, last, got []field) (bulk []byte, ok bool) {
	d := NewDecoder(rec)
	for i, f := range fs {
		g := field{kind: f.kind}
		switch f.kind {
		case 0:
			g.u = d.Uvarint()
		case 1:
			g.u = uint64(d.Varint())
		case 2:
			g.u = uint64(d.Byte())
		case 3:
			g.s = d.Str(last[i].s)
		default:
			g.s = string(d.Bytes())
		}
		got[i] = g
	}
	bulk = d.Bulk(d.Uvarint())
	return bulk, d.Done()
}

// FuzzCodec round-trips field sequences and frames cut from the input and
// feeds the decoder and the frame parser torn, truncated and arbitrary
// bytes.
//
// Records: a sequence of fields and a bulk field decodes back to the same
// values with the decoder used up; a string field equal to the one decoded
// before into the same place comes back as that very string, not a copy;
// every proper prefix of the record fails to decode; and arbitrary bytes
// decode without a panic.
//
// Frames: a frame sealed over a head and a bulk field parses back to its
// type, length and payload, typed or not; every proper prefix and every
// change to the magic, the payload or its CRC is rejected; and arbitrary
// bytes parse without a panic.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{}, byte(0xAB), byte(1), true, uint16(0))
	f.Add([]byte("\x00\xff\xff\xff\xff\xff\xff\xff\xff\x01\x80\x00\x00\x00\x00\x00\x00\x00\x02\x07\x03\x04acme\x04\x03kv:bulk bytes"), byte(0xAB), byte(3), true, uint16(11))
	f.Add([]byte("\x03\x00\x03\x05hello\x04\x02hi"), byte(0xA7), byte(0), false, uint16(5))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, byte(0xA7), byte(0), false, uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, magic, typ byte, typed bool, cut uint16) {
		fs, bulk := fieldsOf(data)
		rec := appendFields(nil, fs, bulk)
		got := make([]field, len(fs))
		gotBulk, ok := decodeFields(rec, fs, make([]field, len(fs)), got)
		if !ok || !bytes.Equal(gotBulk, bulk) {
			t.Fatalf("%x: decoded whole %v, bulk %x; want %x", rec, ok, gotBulk, bulk)
		}
		for i := range fs {
			if got[i] != fs[i] {
				t.Fatalf("field %d decodes as %+v, want %+v", i, got[i], fs[i])
			}
		}
		again := make([]field, len(fs))
		decodeFields(rec, fs, got, again)
		for i := range fs {
			if fs[i].kind == 3 && unsafe.StringData(again[i].s) != unsafe.StringData(got[i].s) {
				t.Fatalf("field %d: an equal string was allocated anew", i)
			}
		}
		for k := range len(rec) {
			if _, ok := decodeFields(rec[:k], fs, got, again); ok {
				t.Fatalf("%x: the %d-byte prefix decoded whole", rec, k)
			}
		}
		decodeFields(data, fs, got, again)
		d := NewDecoder(data)
		for !d.Failed() && d.Off() < len(data) {
			d.Str("")
			d.Varint()
		}

		fr := Frame{Magic: magic, Typed: typed}
		head := rec[:len(rec)-len(bulk)]
		frame := fr.Seal(append(fr.Reserve(nil, typ), head...), 0, bulk)
		frame = append(frame, bulk...)
		if len(frame) != fr.Header()+len(rec) {
			t.Fatalf("%d-byte frame for a %d-byte payload", len(frame), len(rec))
		}
		ptyp, plen, crc, ok := fr.Parse(frame)
		p, pok := fr.Payload(frame, plen, crc)
		if !ok || !pok || typed && ptyp != typ || !bytes.Equal(p, rec) {
			t.Fatalf("%x parses as type %d, payload %x (%v %v)", frame, ptyp, p, ok, pok)
		}
		if Checksum(Checksum(0, head), bulk) != Checksum(0, rec) {
			t.Fatal("CRC chained over head then bulk differs from the whole payload's")
		}
		for k := fr.Header(); k < len(frame); k++ {
			if _, ok := fr.Payload(frame[:k], plen, crc); ok {
				t.Fatalf("the %d-byte prefix of %x parsed", k, frame)
			}
		}
		// A flipped bit in the magic, the CRC or the payload; the type and
		// length are the owner's to check.
		at := int(cut) % len(frame)
		if at > 0 && at < fr.Header()-4 {
			at = fr.Header() - 4
		}
		torn := append([]byte(nil), frame...)
		torn[at] ^= 1 << (cut % 8)
		if _, plen, crc, ok := fr.Parse(torn); ok {
			if _, ok := fr.Payload(torn, plen, crc); ok {
				t.Fatalf("%x with byte %d changed parsed", frame, at)
			}
		}
		if len(data) >= fr.Header() {
			_, plen, crc, _ := fr.Parse(data)
			fr.Payload(data, plen, crc)
		}
	})
}
