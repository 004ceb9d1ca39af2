package labfs

import (
	"errors"

	"labstor/internal/codec"
)

// logOp is a log entry's kind, one uvarint byte on the device.
type logOp byte

const (
	logCreate logOp = iota + 1
	logMkdir
	logUnlink
	logRmdir
	logRename
	logTruncate
	logExtent
	logSetSize
)

// logEntry is one record of LabFS's metadata log. LabFS stores only the log
// on the device and reconstructs all inodes in memory by traversing it
// (paper §III-E). The log itself (framing, blocks, checkpoint, replay) is
// internal/wal; this file is the payload, an internal/codec record:
//
//	seq (uvarint) · op (uvarint) · path (string) · path2 (string) ·
//	mode (uvarint) · uid (varint) · gid (varint) · block_idx (varint) ·
//	phys (varint) · size (varint)
type logEntry struct {
	Seq   uint64
	Op    logOp
	Path  string
	Path2 string
	Mode  uint32
	UID   int
	GID   int
	// Extent fields: file block index -> physical block.
	BlockIdx int64
	Phys     int64
	Size     int64
}

// errBadEntry rejects a checksummed payload that does not decode: a codec
// mismatch rather than a torn write, but replay stops there all the same.
var errBadEntry = errors.New("labfs: malformed log entry")

// appendEntry encodes ent's payload onto dst.
func appendEntry(dst []byte, ent *logEntry) []byte {
	dst = codec.AppendUvarint(dst, ent.Seq)
	dst = codec.AppendUvarint(dst, uint64(ent.Op))
	dst = codec.AppendStr(dst, ent.Path)
	dst = codec.AppendStr(dst, ent.Path2)
	dst = codec.AppendUvarint(dst, uint64(ent.Mode))
	dst = codec.AppendVarint(dst, int64(ent.UID))
	dst = codec.AppendVarint(dst, int64(ent.GID))
	dst = codec.AppendVarint(dst, ent.BlockIdx)
	dst = codec.AppendVarint(dst, ent.Phys)
	return codec.AppendVarint(dst, ent.Size)
}

// decodeEntry decodes one payload written by appendEntry.
func decodeEntry(rec []byte) (logEntry, error) {
	d := codec.NewDecoder(rec)
	seq, op := d.Uvarint(), d.Uvarint()
	ent := logEntry{
		Seq: seq, Op: logOp(op), Path: d.Str(""), Path2: d.Str(""),
		Mode: uint32(d.Uvarint()), UID: int(d.Varint()), GID: int(d.Varint()),
		BlockIdx: d.Varint(), Phys: d.Varint(), Size: d.Varint(),
	}
	if op < uint64(logCreate) || op > uint64(logSetSize) || !d.Done() {
		return logEntry{}, errBadEntry
	}
	return ent, nil
}
