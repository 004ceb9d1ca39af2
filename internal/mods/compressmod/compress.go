// Package compressmod implements the transparent compression LabMod — the
// paper's "Active Storage" example: data is compressed before it is
// persisted and decompressed on the way back, without application changes.
//
// Each compressed block is framed as [1-byte flag][4-byte big-endian
// payload length][payload]. Blocks that do not shrink are stored raw
// (flag 0) so the module never inflates storage beyond the frame header.
package compressmod

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"sync"

	"labstor/internal/core"
	"labstor/internal/telemetry"
)

// Type is the registered module type name.
const Type = "labstor.compress"

// Compression is the one stack boundary where copies are inherent: the
// bytes genuinely change representation. Deflate output streams directly
// into the frame/destination, so only the raw-fallback paths memcpy.
var (
	copyFrameRaw  = telemetry.CopySite("compress.frame_raw")
	copyUnwrapRaw = telemetry.CopySite("compress.unwrap_raw")
)

func init() {
	core.RegisterType(Type, func() core.Module { return &Compressor{} })
}

const (
	frameHeader = 5
	flagRaw     = 0
	flagDeflate = 1
)

// Compressor is the compression module instance.
type Compressor struct {
	core.Base
	level int

	mu         sync.Mutex
	bytesIn    int64
	bytesOut   int64
	compressed int64
}

// Info describes the module.
func (c *Compressor) Info() core.ModuleInfo {
	return core.ModuleInfo{Type: Type, Version: "1.0", Consumes: core.APIBlock, Produces: core.APIBlock}
}

// Configure reads the compression level (attr "level", default 1 = fastest).
func (c *Compressor) Configure(cfg core.Config, env *core.Env) error {
	if err := c.Base.Configure(cfg, env); err != nil {
		return err
	}
	lvl, err := strconv.Atoi(cfg.Attr("level", "1"))
	if err != nil || lvl < flate.HuffmanOnly || lvl > flate.BestCompression {
		return fmt.Errorf("compressmod: bad level attribute %q", cfg.Attr("level", "1"))
	}
	c.level = lvl
	return nil
}

// Process compresses write payloads and decompresses read results.
func (c *Compressor) Process(e *core.Exec, req *core.Request) error {
	switch req.Op {
	case core.OpBlockWrite, core.OpWrite, core.OpAppend, core.OpPut:
		return c.processWrite(e, req)
	case core.OpBlockRead, core.OpRead, core.OpGet:
		return c.processRead(e, req)
	default:
		return e.Next(req)
	}
}

func (c *Compressor) processWrite(e *core.Exec, req *core.Request) error {
	orig := req.Data
	req.Charge("compress", e.Model.Compress(len(orig)))

	var hdr [frameHeader]byte
	var buf bytes.Buffer
	buf.Write(hdr[:])
	w, err := flate.NewWriter(&buf, c.level)
	if err != nil {
		return err
	}
	if _, err := w.Write(orig); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}

	framed := buf.Bytes()
	var scratch core.BufHandle // arena frame to release after the downstream write
	if buf.Len()-frameHeader >= len(orig) {
		// Incompressible: store raw in an arena scratch frame.
		scratch = core.AcquireHandle(frameHeader + len(orig))
		framed = scratch.Bytes()
		framed[0] = flagRaw
		binary.BigEndian.PutUint32(framed[1:frameHeader], uint32(len(orig)))
		copyFrameRaw.Add(copy(framed[frameHeader:], orig))
	} else {
		framed[0] = flagDeflate
		binary.BigEndian.PutUint32(framed[1:frameHeader], uint32(buf.Len()-frameHeader))
	}

	c.mu.Lock()
	c.bytesIn += int64(len(orig))
	c.bytesOut += int64(len(framed))
	c.compressed++
	c.mu.Unlock()

	req.Data = framed
	req.Size = len(framed)
	// Detach the payload handle while Data points at the frame: the frame
	// is scratch, not the payload buffer, and downstream mods must not
	// pair the handle with the wrong bytes: a cache below would keep the
	// handle as the page of the frame's block.
	origBuf := req.Buf
	req.Buf = core.BufHandle{}
	err = e.Next(req)
	// Restore the caller's view of the payload.
	req.Data = orig
	req.Size = len(orig)
	req.Buf = origBuf
	scratch.Release()
	if err == nil {
		req.Result = int64(len(orig))
	}
	return err
}

func (c *Compressor) processRead(e *core.Exec, req *core.Request) error {
	want := req.Size
	dst := req.Data
	// Read the full frame region downstream into an arena scratch buffer.
	// The frame is at most header + original size (raw fallback guarantee).
	scratch := core.AcquireHandle(frameHeader + want)
	defer scratch.Release()
	frame := scratch.Bytes()
	req.Data = frame
	req.Size = len(frame)
	// Detach handles while Data points at the frame scratch — a cache
	// below must not retain the caller's destination as the page backing
	// this (compressed) block.
	origBuf, origVH := req.Buf, req.ValueH
	req.Buf, req.ValueH = core.BufHandle{}, core.BufHandle{}
	err := e.Next(req)
	req.Data = dst
	req.Size = want
	req.Buf, req.ValueH = origBuf, origVH
	if err != nil {
		return err
	}
	flag := frame[0]
	n := int(binary.BigEndian.Uint32(frame[1:frameHeader]))
	if n < 0 || n > len(frame)-frameHeader {
		return fmt.Errorf("compressmod: corrupt frame at offset %d (len %d)", req.Offset, n)
	}
	payload := frame[frameHeader : frameHeader+n]

	if req.Data == nil {
		req.Data = req.CompleteValue(want)
	}
	var copied int
	switch flag {
	case flagRaw:
		copied = copy(req.Data, payload)
		copyUnwrapRaw.Add(copied)
	case flagDeflate:
		// Decompress straight into the destination — the transform's
		// output lands in its final buffer with no intermediate copy.
		req.Charge("decompress", e.Model.Compress(want)/2)
		r := flate.NewReader(bytes.NewReader(payload))
		copied, err = io.ReadFull(r, req.Data[:want])
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			err = nil // short logical tail: the frame held fewer bytes
		}
		if err != nil {
			return fmt.Errorf("compressmod: decompress at offset %d: %w", req.Offset, err)
		}
	default:
		return fmt.Errorf("compressmod: unknown frame flag %d at offset %d", flag, req.Offset)
	}
	req.Result = int64(copied)
	return nil
}

// Ratio returns the achieved compression ratio (input/output bytes).
func (c *Compressor) Ratio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bytesOut == 0 {
		return 1
	}
	return float64(c.bytesIn) / float64(c.bytesOut)
}

// StateUpdate carries counters across a live upgrade.
func (c *Compressor) StateUpdate(prev core.Module) error {
	if old, ok := prev.(*Compressor); ok {
		old.mu.Lock()
		defer old.mu.Unlock()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.bytesIn, c.bytesOut, c.compressed = old.bytesIn, old.bytesOut, old.compressed
	}
	return nil
}
