package main

import (
	"math"
	"sort"
	"time"

	"malsched/internal/schedule"
)

// pct is one nearest-rank percentile of a sample set: the value, the
// sample count and how many samples lie strictly beyond it. A tail
// percentile is only trusted with at least minBeyond samples past it.
type pct struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// minBeyond is the number of samples a reported tail percentile needs
// beyond it before the run trusts it.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it, i.e. sorted[⌈p·N/100⌉−1].
func nearestRank(sorted []float64, p float64) pct {
	n := len(sorted)
	if n == 0 {
		return pct{}
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return pct{Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// samples collects one latency-like series.
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }
func (s samples) sorted() []float64       { c := append([]float64(nil), s...); sort.Float64s(c); return c }
func (s samples) pct(p float64) pct       { return nearestRank(s.sorted(), p) }

// median is the median proper: the mean of the two middle samples of an
// even count.
func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// byInput keeps one run's samples per input: every input is timed many
// times in a run.
type byInput []samples

// denoised returns every sample replaced by the median of its input's
// samples. A host stall hits single calls, so it cannot set a percentile
// of the denoised samples; anything that slows most calls of an input —
// the program's own cost — still does.
func (b byInput) denoised() samples {
	var out samples
	for _, s := range b {
		m := s.median()
		for range s {
			out = append(out, m)
		}
	}
	return out
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// fnv is a 64-bit FNV-1a accumulator over machine words; the result
// digests are built from it so a digest names exact bits, not rounded
// values.
type fnv uint64

const (
	fnvOffset fnv = 14695981039346656037
	fnvPrime  fnv = 1099511628211
)

func newFNV() fnv { return fnvOffset }

func (h *fnv) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(v & 0xff)
		*h *= fnvPrime
		v >>= 8
	}
}

func (h *fnv) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *fnv) int(v int)     { h.u64(uint64(int64(v))) }

// planDigest hashes a certified result: makespan and lower-bound bits,
// every placement and the probe count. Two results with the same digest
// are, for every purpose the benchmark checks, the same result.
func planDigest(makespan, lowerBound float64, p *schedule.Schedule, probes int) uint64 {
	h := newFNV()
	h.f64(makespan)
	h.f64(lowerBound)
	h.int(probes)
	if p != nil {
		h.int(len(p.Placements))
		for _, pl := range p.Placements {
			h.int(pl.Task)
			h.f64(pl.Start)
			h.int(pl.Width)
			h.int(pl.First)
			h.int(len(pl.ProcSet))
			for _, q := range pl.ProcSet {
				h.int(q)
			}
		}
	}
	return uint64(h)
}

// combine folds an ordered list of per-op digests into one.
func combine(ds []uint64) uint64 {
	h := newFNV()
	h.int(len(ds))
	for _, d := range ds {
		h.u64(d)
	}
	return uint64(h)
}
