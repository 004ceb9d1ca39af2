// Package wal is the write-ahead log under LabFS and LabKVS. Both mods keep
// only a log of metadata records on the device and rebuild their in-memory
// index by replaying it (paper §III-E); wal owns everything about that log
// but the records' contents: framing, packing records into blocks, ordered
// block writes, the checkpoint that reclaims the region, and replay.
//
// On the device, the log is the block region [0, blocks) of the stack below
// its owner. Each block is
//
//	[lap, 4B LE][record]...[zero padding]
//
// and each record is an opaque payload in an untyped internal/codec frame
// with magic 0xA7.
//
// A checkpoint starts a new lap at block 0. Replay reads blocks in order and
// stops at the first block whose lap differs from block 0's, so it never
// reads into the previous lap's leftovers; within a block it moves on at the
// zero padding (the magic is nonzero) and stops for good at a torn record:
// bad magic, short frame, checksum mismatch or a nonzero padding byte.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"labstor/internal/codec"
	"labstor/internal/core"
	"labstor/internal/telemetry"
)

const (
	blockHeader = 4 // lap
	recMagic    = 0xA7
)

// logFmt frames each record.
var logFmt = codec.Frame{Magic: recMagic}

// ErrFull reports an append past the end of the log region.
var ErrFull = errors.New("wal: log region full")

// Snapshot re-emits its owner's whole state as records. A checkpoint calls
// it on a reset log, so what it emits replaces everything logged before.
type Snapshot func(emit func(rec []byte) error) error

// Log is one write-ahead log.
//
// Locking: mu guards the block being filled (lap/head/buf/dirty) and is
// never held across a device write. A full block is detached as a padded
// image under mu and written after mu is dropped, so concurrent appenders
// serialize only on the buffer splice. Each image gets a version under mu;
// wmu serializes the device writes and drops an image older than one
// already written to the same block. The version map outlives checkpoints,
// so an image detached before one can never overwrite its blocks.
type Log struct {
	blockSize int
	blocks    int64
	pad       *telemetry.CopyCounter

	ckMu sync.Mutex // one checkpoint at a time

	mu    sync.Mutex
	lap   uint32 // lap being written: 1 on a fresh log, +1 per checkpoint
	head  int64  // block being filled
	buf   []byte // its framed records
	dirty bool   // buf differs from the device's copy of block head
	wver  uint64 // version source for detached images

	wmu     sync.Mutex
	written map[int64]uint64 // block -> version of the newest image written
}

// New returns an empty log over blocks blocks of blockSize bytes. Copies
// into padded block images count at pad.
func New(blockSize int, blocks int64, pad *telemetry.CopyCounter) *Log {
	return &Log{blockSize: blockSize, blocks: blocks, pad: pad, lap: 1, written: make(map[int64]uint64)}
}

// Append frames rec into the current block and writes the block downstream
// once it is full. When the region is nearly full, Append first checkpoints
// from snap: it resets the log to a new lap, appends what snap emits and
// flushes. With a nil snap the log never checkpoints and an append past the
// region fails with ErrFull.
func (l *Log) Append(e *core.Exec, parent *core.Request, rec []byte, snap Snapshot) error {
	n := logFmt.Header() + len(rec)
	if blockHeader+n > l.blockSize {
		return fmt.Errorf("wal: %d-byte record does not fit a %d-byte block", len(rec), l.blockSize)
	}
	var img []byte
	var at int64
	var ver uint64
	l.mu.Lock()
	if snap != nil && l.head >= l.blocks-2 {
		l.mu.Unlock()
		if err := l.checkpoint(e, parent, snap); err != nil {
			return err
		}
		l.mu.Lock()
	}
	if blockHeader+len(l.buf)+n > l.blockSize {
		img, at, ver = l.detach()
		l.head++
		l.buf = l.buf[:0]
	}
	full := l.head >= l.blocks
	if !full {
		l.buf = appendFrame(l.buf, rec)
		l.dirty = true
	}
	l.mu.Unlock()

	if img != nil {
		if err := l.writeVersioned(e, parent, at, ver, img); err != nil {
			return err
		}
	}
	if full {
		return fmt.Errorf("%w (%d blocks)", ErrFull, l.blocks)
	}
	return nil
}

// Flush writes the current partial block (fsync, close, checkpoint).
func (l *Log) Flush(e *core.Exec, parent *core.Request) error {
	l.mu.Lock()
	if !l.dirty {
		l.mu.Unlock()
		return nil
	}
	img, at, ver := l.detach()
	l.mu.Unlock()
	if err := l.writeVersioned(e, parent, at, ver, img); err != nil {
		l.mu.Lock()
		l.dirty = true
		l.mu.Unlock()
		return err
	}
	return nil
}

// checkpoint rewrites the log as snap's image of the owner's state in a new
// lap.
func (l *Log) checkpoint(e *core.Exec, parent *core.Request, snap Snapshot) error {
	l.ckMu.Lock()
	defer l.ckMu.Unlock()
	l.mu.Lock()
	if l.head < l.blocks-2 { // another worker's checkpoint came first
		l.mu.Unlock()
		return nil
	}
	// A new lap at an empty block 0. The block is dirty, so the Flush below
	// stamps the new lap on the device even if snap emits nothing.
	l.lap++
	l.head = 0
	l.buf = l.buf[:0]
	l.dirty = true
	l.mu.Unlock()
	if err := snap(func(rec []byte) error { return l.Append(e, parent, rec, nil) }); err != nil {
		return err
	}
	return l.Flush(e, parent)
}

// detach returns a versioned, zero-padded arena image of the block being
// filled. Callers hold mu.
func (l *Log) detach() (img []byte, at int64, ver uint64) {
	img = core.AcquireBuf(l.blockSize)
	binary.LittleEndian.PutUint32(img, l.lap)
	n := copy(img[blockHeader:], l.buf)
	l.pad.Add(n)
	// Arena buffers come back dirty, and the padding is what ends a block's
	// records on replay.
	clear(img[blockHeader+n:])
	l.wver++
	l.dirty = false
	return img, l.head, l.wver
}

// writeVersioned writes a detached image downstream unless a newer image
// of the same block has been written already, and returns it to the arena.
// Log blocks are read back only by replay, so they go DirectIO: a cache
// below takes no page and no copy for them.
func (l *Log) writeVersioned(e *core.Exec, parent *core.Request, blockNo int64, ver uint64, img []byte) error {
	defer core.ReleaseBuf(img)
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.written[blockNo] >= ver {
		return nil
	}
	child := parent.Child(core.OpBlockWrite)
	child.Offset = blockNo * int64(l.blockSize)
	child.Size = l.blockSize
	child.Data = img
	child.DirectIO = true
	err := e.SpawnNext(parent, child)
	child.Data = nil // img goes back to the arena; drop the alias
	child.Release()
	if err == nil {
		l.written[blockNo] = ver
	}
	return err
}

// Replay reads the log from block 0 and passes each record to apply in
// append order; rec aliases a scratch block, so apply copies what it keeps.
// Replay stops at the first block of another lap or without records, at a
// torn record, or at a record apply rejects. Wherever it stops, appends
// resume right after the last record applied: the next Flush rewrites a
// torn remainder and never a valid record.
func (l *Log) Replay(e *core.Exec, parent *core.Request, apply func(rec []byte) error) error {
	blk := core.AcquireBuf(l.blockSize)
	defer core.ReleaseBuf(blk)
	var lap uint32
	var head int64
	var tail []byte // records of block head, up to the stop
	var err error
	for b := int64(0); b < l.blocks; b++ {
		child := parent.Child(core.OpBlockRead)
		child.Offset = b * int64(l.blockSize)
		child.Size = l.blockSize
		child.Data = blk
		err = e.SpawnNext(parent, child)
		child.Data = nil
		child.Release()
		if err != nil {
			break
		}
		if b == 0 {
			lap = binary.LittleEndian.Uint32(blk)
		}
		if lap == 0 || binary.LittleEndian.Uint32(blk) != lap {
			break
		}
		end, stop := scanBlock(blk, apply)
		if end == blockHeader {
			break
		}
		head, tail = b, append(tail[:0], blk[blockHeader:end]...)
		if stop {
			break
		}
	}

	l.mu.Lock()
	if lap != 0 {
		l.lap = lap
	}
	l.head = head
	l.buf = tail
	l.dirty = false
	l.mu.Unlock()
	return err
}

// scanBlock applies blk's records in order and returns the offset just past
// the last one applied; stop reports a torn or rejected record.
func scanBlock(blk []byte, apply func(rec []byte) error) (end int, stop bool) {
	end = blockHeader
	for {
		rec, n, torn := decodeFrame(blk[end:])
		if torn || n > 0 && apply(rec) != nil {
			return end, true
		}
		if n == 0 {
			return end, false
		}
		end += n
	}
}

// appendFrame appends rec to dst as one framed record. The checksum is
// taken over dst's copy, so rec itself never escapes (owners encode into
// stack scratch).
func appendFrame(dst, rec []byte) []byte {
	start := len(dst)
	return logFmt.Seal(append(logFmt.Reserve(dst, 0), rec...), start, nil)
}

// decodeFrame reads the record framed at the start of b and the n bytes the
// frame spans. n is 0 at the zero padding that ends a block's records; torn
// reports a bad magic, a short frame, a checksum mismatch or a nonzero byte
// in the padding, which runs to the end of a block that was not torn.
func decodeFrame(b []byte) (rec []byte, n int, torn bool) {
	if len(b) == 0 || b[0] == 0 {
		return nil, 0, len(bytes.TrimLeft(b, "\x00")) > 0
	}
	_, plen, crc, ok := logFmt.Parse(b)
	if ok {
		rec, ok = logFmt.Payload(b, plen, crc)
	}
	if !ok {
		return nil, 0, true
	}
	return rec, logFmt.Header() + len(rec), false
}
