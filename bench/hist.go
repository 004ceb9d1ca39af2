package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: exact below
// 2*histSub ns, then histSub buckets per octave, so a bucket is never wider
// than 1/histSub (0.8%) of its value. Quantiles interpolate inside the
// bucket, so two runs whose medians differ by a few nanoseconds read
// differently. Fixed size: recording never allocates in the timed loop.
const (
	histSub     = 128
	histSubBits = 7
	histMaxBits = 36 // values clamp at 2^36 ns (68 s)
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    int64
}

func histBucket(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	e := bits.Len64(uint64(v)) - (histSubBits + 1)
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// bucketBounds returns the lowest value of bucket i and the bucket's width.
func bucketBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	return float64(int64(i%histSub+histSub) << e), float64(int64(1) << e)
}

// add records n samples of v nanoseconds.
func (h *hist) add(v int64, n uint32) {
	h.counts[histBucket(v)] += n
	h.n += uint64(n)
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// median returns the median of vs, ignoring NaNs (NaN when none remain).
func median(vs []float64) float64 {
	s := make([]float64, 0, len(vs))
	for _, v := range vs {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
