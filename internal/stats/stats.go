// Package stats provides the small statistics toolkit used by the benchmark
// harness: streaming summaries, exact percentile samples, log-scaled
// histograms and rate/series helpers. Everything is safe for concurrent use
// unless noted otherwise.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Summary accumulates count/sum/min/max/mean in a single pass. The zero
// value is ready to use.
type Summary struct {
	mu   sync.Mutex
	n    int64
	mean float64
	min  float64
	max  float64
	sum  float64
}

// Observe adds one observation.
func (s *Summary) Observe(x float64) {
	s.mu.Lock()
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	s.sum += x
	s.mean += (x - s.mean) / float64(s.n)
	s.mu.Unlock()
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.n }

// Sum returns the sum of observations.
func (s *Summary) Sum() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.sum }

// Mean returns the running mean (0 if empty).
func (s *Summary) Mean() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.mean }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.max }

// Sample retains every observation for exact percentile computation.
// Suitable for the experiment scales used here (≤ a few million points).
type Sample struct {
	mu   sync.Mutex
	xs   []float64
	dirt bool
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample {
	if n < 0 {
		n = 0
	}
	return &Sample{xs: make([]float64, 0, n)}
}

// Observe adds one observation.
func (p *Sample) Observe(x float64) {
	p.mu.Lock()
	p.xs = append(p.xs, x)
	p.dirt = true
	p.mu.Unlock()
}

// Count returns the number of observations.
func (p *Sample) Count() int { p.mu.Lock(); defer p.mu.Unlock(); return len(p.xs) }

// Mean returns the mean of all observations (0 if empty).
func (p *Sample) Mean() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range p.xs {
		s += x
	}
	return s / float64(len(p.xs))
}

// Percentile returns the q-th percentile (q in [0,100]) using the
// nearest-rank method. Returns 0 if empty.
func (p *Sample) Percentile(q float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.xs)
	if n == 0 {
		return 0
	}
	if p.dirt {
		sort.Float64s(p.xs)
		p.dirt = false
	}
	if q <= 0 {
		return p.xs[0]
	}
	if q >= 100 {
		return p.xs[n-1]
	}
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return p.xs[rank-1]
}

// Max returns the largest observation.
func (p *Sample) Max() float64 { return p.Percentile(100) }

// Min returns the smallest observation.
func (p *Sample) Min() float64 { return p.Percentile(0) }

// Histogram is a log2-bucketed histogram for latency-like values. The
// exact maximum observation is tracked alongside the buckets, so Quantile
// never reports beyond the largest value actually seen.
type Histogram struct {
	mu      sync.Mutex
	buckets [64]int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// Observe adds a non-negative observation.
func (h *Histogram) Observe(x float64) {
	if x < 0 {
		x = 0
	}
	b := 0
	if x >= 1 {
		b = int(math.Log2(x)) + 1
		if b >= len(h.buckets) {
			b = len(h.buckets) - 1
		}
	}
	h.mu.Lock()
	h.buckets[b]++
	h.count++
	h.sum += x
	if h.count == 1 || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.count }

// Mean returns the mean observation.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() float64 { h.mu.Lock(); defer h.mu.Unlock(); return h.min }

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() float64 { h.mu.Lock(); defer h.mu.Unlock(); return h.max }

// Quantile returns an estimate of the q-th quantile (q in [0,1]) assuming
// uniform distribution within each bucket, clamped to the exact maximum
// observation (so q=1 reports the true max, not the bucket's upper bound).
func (h *Histogram) Quantile(q float64) float64 {
	return h.State().Quantile(q)
}

// HistogramState is a copyable snapshot of a Histogram's raw accumulator
// state. Two snapshots of the same histogram can be subtracted to obtain the
// distribution observed *between* them (SLO watchdogs evaluate quantiles
// over such deltas, so a long-running runtime reacts to recent latency
// rather than the lifetime distribution).
type HistogramState struct {
	Buckets [64]int64
	Count   int64
	Sum     float64
	Min     float64
	Max     float64
}

// State returns the histogram's current accumulator snapshot.
func (h *Histogram) State() HistogramState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramState{Buckets: h.buckets, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
}

// Delta returns the distribution observed since prev (bucket-wise
// subtraction). Min/Max carry the current snapshot's values: exact window
// extremes are not recoverable from counters, so quantiles over a delta are
// clamped to the lifetime maximum — an upper bound on the window's.
func (s HistogramState) Delta(prev HistogramState) HistogramState {
	d := s
	for i := range d.Buckets {
		d.Buckets[i] -= prev.Buckets[i]
		if d.Buckets[i] < 0 {
			d.Buckets[i] = 0
		}
	}
	d.Count = s.Count - prev.Count
	if d.Count < 0 {
		d.Count = 0
	}
	d.Sum = s.Sum - prev.Sum
	return d
}

// Mean returns the mean of the snapshot (0 if empty).
func (s HistogramState) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile of the snapshot, uniform within each
// bucket and clamped to the recorded maximum.
func (s HistogramState) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	clamp := func(v float64) float64 {
		if v > s.Max {
			return s.Max
		}
		return v
	}
	target := q * float64(s.Count)
	var cum float64
	for b, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := bucketBounds(b)
			frac := (target - cum) / float64(c)
			return clamp(lo + frac*(hi-lo))
		}
		cum = next
	}
	return s.Max
}

func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	return math.Pow(2, float64(b-1)), math.Pow(2, float64(b))
}

// Throughput converts (ops, elapsed seconds) to ops/sec, guarding zero.
func Throughput(ops int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(ops) / seconds
}

// MBps converts (bytes, elapsed seconds) to MiB/s, guarding zero.
func MBps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / (1 << 20)
}

// Table is a minimal fixed-width text table builder for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row formatting each value with %v (floats as %.2f).
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var out string
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i < len(width) {
				s += fmt.Sprintf("%-*s  ", width[i], c)
			} else {
				s += c + "  "
			}
		}
		return s + "\n"
	}
	out += line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = dashes(width[i])
	}
	out += line(sep)
	for _, r := range t.Rows {
		out += line(r)
	}
	return out
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
