package pushdown

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"labstor/internal/codec"
	"labstor/internal/core"
	"labstor/internal/telemetry"
)

// Default per-request execution budgets, applied when the policy layer did
// not clamp tighter ones onto the request.
const (
	DefaultMaxBytes = 64 << 20 // bytes scanned
	DefaultMaxSteps = 1 << 20  // records × predicates evaluated
)

// ErrBudget aborts a scan whose program exhausted its byte or step budget.
var ErrBudget = errors.New("pushdown: execution budget exceeded")

// Emission copy sites (telemetry copies/op audit): pushdown's whole point
// is that these are the ONLY data-path copies a scan makes — matched
// bytes out (emit), plus small assembly copies when a record spans chunks
// (assemble) or a grep line spans blocks (carry, charged by labfs).
var (
	copyEmit     = telemetry.CopySite("pushdown.emit")
	copyAssemble = telemetry.CopySite("pushdown.assemble")
	// CopyCarry audits partial-line bytes carried across block boundaries
	// by streaming line scanners (labfs grep-offload).
	CopyCarry = telemetry.CopySite("pushdown.carry")
)

// EmitStyle selects how filter-mode matches are framed into the result.
type EmitStyle uint8

const (
	// EmitKV frames each match as an internal/codec record of two string
	// fields, key then value.
	EmitKV EmitStyle = iota
	// EmitRaw appends each match followed by '\n' (grep-style lines).
	EmitRaw
)

// Eval executes one program over a stream of records, tracking budgets and
// accumulating either an aggregate scalar or emitted matches. Not
// concurrency-safe; one Eval per request.
type Eval struct {
	prog  *Program
	style EmitStyle

	maxBytes int64
	maxSteps int64
	bytes    int64
	steps    int64
	records  int64
	matched  int64

	agg    uint64
	aggSet bool

	out     []byte
	scratch []byte
}

// NewEval returns an evaluator for prog. maxBytes/maxSteps of 0 (or
// negative) apply the package defaults.
func NewEval(prog *Program, style EmitStyle, maxBytes, maxSteps int64) *Eval {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	return &Eval{prog: prog, style: style, maxBytes: maxBytes, maxSteps: maxSteps}
}

// Record evaluates one record, supplied as one or more in-place chunk
// views (e.g. per-block BufHandle views — the evaluator never copies them
// unless the program needs a contiguous record). Returns whether the
// record matched; a budget trip returns ErrBudget and the scan must stop.
func (ev *Eval) Record(key string, chunks ...[]byte) (bool, error) {
	size := 0
	for _, c := range chunks {
		size += len(c)
	}
	ev.bytes += int64(size)
	ev.steps += int64(1 + len(ev.prog.preds))
	if ev.bytes > ev.maxBytes || ev.steps > ev.maxSteps {
		return false, fmt.Errorf("%w: %d bytes (cap %d), %d steps (cap %d)",
			ErrBudget, ev.bytes, ev.maxBytes, ev.steps, ev.maxSteps)
	}
	ev.records++

	var rec []byte
	if len(chunks) == 1 {
		rec = chunks[0]
	} else if ev.prog.needsContiguous() {
		ev.scratch = ev.scratch[:0]
		for _, c := range chunks {
			ev.scratch = append(ev.scratch, c...)
		}
		copyAssemble.Add(size)
		rec = ev.scratch
	}

	if !ev.match(rec, chunks) {
		return false, nil
	}
	ev.matched++

	switch ev.prog.agg {
	case aggCount:
		ev.agg++
	case aggSum, aggMin, aggMax:
		v, ok := readFieldChunks(rec, chunks, ev.prog.af)
		if !ok {
			return true, nil // record too short for the operand: contributes nothing
		}
		switch ev.prog.agg {
		case aggSum:
			ev.agg += v
		case aggMin:
			if !ev.aggSet || v < ev.agg {
				ev.agg = v
			}
		case aggMax:
			if !ev.aggSet || v > ev.agg {
				ev.agg = v
			}
		}
		ev.aggSet = true
	case aggFilter:
		ev.emit(key, rec, chunks, size)
	}
	return true, nil
}

func (ev *Eval) match(rec []byte, chunks [][]byte) bool {
	p := ev.prog
	if p.fn != nil {
		return p.fn(rec)
	}
	for _, pr := range p.preds {
		switch pr.kind {
		case predSubstr:
			if !bytes.Contains(rec, pr.lit) {
				return false
			}
		case predField:
			v, ok := readFieldChunks(rec, chunks, pr.f)
			if !ok {
				return false // record too short: no match
			}
			if !compare(v, pr.cmp, pr.val) {
				return false
			}
		}
	}
	return true
}

func compare(v uint64, op cmpOp, ref uint64) bool {
	switch op {
	case cmpEQ:
		return v == ref
	case cmpNE:
		return v != ref
	case cmpLT:
		return v < ref
	case cmpLE:
		return v <= ref
	case cmpGT:
		return v > ref
	case cmpGE:
		return v >= ref
	}
	return false
}

// readFieldChunks decodes a little-endian field, preferring the contiguous
// record when available and gathering across chunk boundaries otherwise.
func readFieldChunks(rec []byte, chunks [][]byte, f field) (uint64, bool) {
	if rec != nil {
		// f.off may be anything up to MaxInt64: compare without adding to it.
		if f.off > int64(len(rec)-f.width) {
			return 0, false
		}
		return readLE(rec[f.off : f.off+int64(f.width)]), true
	}
	var buf [8]byte
	need := f.width
	got := 0
	skip := f.off
	for _, c := range chunks {
		if skip >= int64(len(c)) {
			skip -= int64(len(c))
			continue
		}
		n := copy(buf[got:need], c[skip:])
		got += n
		skip = 0
		if got == need {
			return readLE(buf[:need]), true
		}
	}
	return 0, false
}

func readLE(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (ev *Eval) emit(key string, rec []byte, chunks [][]byte, size int) {
	if ev.style == EmitKV {
		ev.out = codec.AppendStr(ev.out, key)
		ev.out = codec.AppendUvarint(ev.out, uint64(size))
	}
	if rec != nil {
		ev.out = append(ev.out, rec...)
	} else {
		for _, c := range chunks {
			ev.out = append(ev.out, c...)
		}
	}
	if ev.style == EmitRaw {
		ev.out = append(ev.out, '\n')
	}
	copyEmit.Add(size + len(key))
}

// Finish stores the scan outcome on the request: the aggregate scalar in
// Result, or the emitted matches in Value with Result = len(Value).
func (ev *Eval) Finish(req *core.Request) {
	if ev.prog.Aggregates() {
		req.Result = int64(ev.agg)
		return
	}
	req.Value = ev.out
	req.Result = int64(len(ev.out))
}

// BytesScanned returns how many record bytes the program evaluated.
func (ev *Eval) BytesScanned() int64 { return ev.bytes }

// Records returns how many records were evaluated.
func (ev *Eval) Records() int64 { return ev.records }

// Matched returns how many records matched.
func (ev *Eval) Matched() int64 { return ev.matched }

// EmitBytes returns the size of the emitted result (filter mode).
func (ev *Eval) EmitBytes() int64 { return int64(len(ev.out)) }

// DecodeKV walks an EmitKV result, calling fn per match. Clients use it
// to unpack scan results; the experiment uses it to verify correctness.
func DecodeKV(buf []byte, fn func(key string, val []byte) error) error {
	d := codec.NewDecoder(buf)
	for !d.Done() {
		key, val := d.Str(""), d.Bytes()
		if d.Failed() {
			return fmt.Errorf("pushdown: torn KV result")
		}
		if err := fn(key, val); err != nil {
			return err
		}
	}
	return nil
}
