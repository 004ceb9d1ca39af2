package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"labstor/internal/core"
)

// span is one timed interval of the traced run. A rung's root span covers
// the whole replay at one entry point; every other span is one call (or one
// window of calls) into that entry point and has the root as its parent.
// No pointers, so a million spans cost the collector nothing.
type span struct {
	start, end int64 // ns since the trace began
	op         uint32
	parent     int32
	calls      uint16
	rung       uint8
	kind       core.Op
}

// tracer keeps the traced run's spans in memory; write stores them.
type tracer struct {
	t0    time.Time
	rungs []string
	spans []span
	root  int32
	next  uint32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

// begin opens the root span of a new rung.
func (t *tracer) begin(rung string) {
	t.rungs = append(t.rungs, rung)
	t.root = int32(len(t.spans))
	t.next = 0
	t.spans = append(t.spans, span{start: int64(time.Since(t.t0)), parent: -1, rung: uint8(len(t.rungs) - 1)})
}

func (t *tracer) end() { t.spans[t.root].end = int64(time.Since(t.t0)) }

func (t *tracer) observe(c *call, t0, t1 time.Time, ok bool) {
	start := int64(t0.Sub(t.t0))
	if last := &t.spans[len(t.spans)-1]; last.parent == t.root && last.start == start {
		last.calls++ // another call of the same window
		t.next++
		return
	}
	t.spans = append(t.spans, span{start: start, end: int64(t1.Sub(t.t0)), op: t.next, parent: t.root,
		calls: 1, rung: uint8(len(t.rungs) - 1), kind: c.op})
	t.next++
}

// rungTotals is what the spans of one rung add up to.
type rungTotals struct {
	calls uint64
	ns    int64
	kinds map[core.Op]rungKind
}

type rungKind struct {
	calls uint64
	ns    int64
}

// totals sums the call spans under the current root.
func (t *tracer) totals() rungTotals {
	tot := rungTotals{kinds: map[core.Op]rungKind{}}
	for _, s := range t.spans[t.root+1:] {
		tot.calls += uint64(s.calls)
		tot.ns += s.end - s.start
		k := tot.kinds[s.kind]
		k.calls += uint64(s.calls)
		k.ns += s.end - s.start
		tot.kinds[s.kind] = k
	}
	return tot
}

// traceKeep is how many calls of each rung the trace file holds. The
// per-layer metrics are computed from every span; the file is for reading.
const traceKeep = 2000

// write stores the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"workload\":%q,\"seed\":%d,\"time_unit\":\"ns since the traced run began\",\"calls_kept_per_rung\":%d,\n\"spans\":[",
		workload, seed, traceKeep)
	first := true
	for id, s := range t.spans {
		if s.parent >= 0 && s.op >= traceKeep {
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		kind := ""
		if s.parent >= 0 {
			kind = s.kind.String()
		}
		fmt.Fprintf(bw, "\n{\"id\":%d,\"name\":%q,\"parent\":%d,\"op\":%d,\"kind\":%q,\"calls\":%d,\"start\":%d,\"end\":%d}",
			id, t.rungs[s.rung], s.parent, s.op, kind, s.calls, s.start, s.end)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
