package instance

import (
	"slices"

	"malsched/internal/task"
)

// Compiled is a compile-once, immutable, struct-of-arrays view of an
// instance, built for the dual-approximation hot path: the dichotomic
// search probes many deadline guesses λ on the same instance, and every
// probe starts from the canonical allotment γ(λ) = min{p : t_i(p) ≤ λ}.
//
// Compile flattens every task profile into one contiguous time column (no
// per-task pointer chasing on the probe path) and precomputes the
// sequential-time order — nothing else. Gamma runs task.Canonical's own
// task.Leq binary search over the flattened row, so it is bit-identical to
// task.Canonical by construction. Segment sums, over all tasks, the number
// of profile entries at or above γ_i(λ): each task's count is a function
// of λ that never decreases and determines γ_i, so two deadlines with the
// same sum have the same canonical allotment vector — and therefore the
// same by-decreasing-time order, total canonical work and prefix area.
// core's Scratch caches those derived tables keyed by the sum and reuses
// them wholesale when consecutive probes land in the same segment (the
// bisection endgame always does).
//
// A Compiled is immutable after Compile and safe for concurrent use by any
// number of searches; the engine caches one per workload fingerprint and
// the scheduling service compiles at admission so batch shards share it.
type Compiled struct {
	in *Instance
	// off[i] is the first column of task i; off[n] is the total column
	// count. Task i's profile occupies columns off[i]..off[i+1]-1, column
	// off[i]+p-1 holding processor count p.
	off []int
	// times is the flattened profile matrix: t_i(p) in the layout above.
	times []float64
	// seqOrder is the task order of non-increasing sequential time t(1)
	// (stable), precomputed because §3.1's malleable list construction
	// needs exactly this order at every λ.
	seqOrder []int
}

// Compile builds the compiled view of an instance. It never panics, even on
// malformed instances built around validation (empty profiles compile to
// empty rows and report no canonical allotment): the scheduling service
// compiles at admission, before the engine's instance.Check runs.
func Compile(in *Instance) *Compiled {
	if in == nil {
		return nil
	}
	n := len(in.Tasks)
	c := &Compiled{in: in, off: make([]int, n+1), seqOrder: make([]int, n)}
	total := 0
	for i, t := range in.Tasks {
		c.off[i] = total
		total += t.MaxProcs()
	}
	c.off[n] = total
	c.times = make([]float64, 0, total)
	for i, t := range in.Tasks {
		c.times = t.AppendTimes(c.times)
		c.seqOrder[i] = i
	}
	// Stable, by non-increasing t(1): the permutation the legacy path's
	// sort.SliceStable produces (same less, same algorithm).
	slices.SortStableFunc(c.seqOrder, func(a, b int) int {
		ta, tb := c.seqTimeOrZero(a), c.seqTimeOrZero(b)
		switch {
		case ta > tb:
			return -1
		case tb > ta:
			return 1
		}
		return 0
	})
	return c
}

// seqTimeOrZero is t_i(1), or 0 for a (malformed) empty profile.
func (c *Compiled) seqTimeOrZero(i int) float64 {
	if c.off[i] == c.off[i+1] {
		return 0
	}
	return c.times[c.off[i]]
}

// Instance returns the instance the tables were compiled from. The tables
// themselves are name-independent (they hold only machine size and time
// values), so the engine's compiled cache may legitimately serve a Compiled
// whose Instance is a renamed copy of the caller's workload.
func (c *Compiled) Instance() *Instance { return c.in }

// M returns the machine size.
func (c *Compiled) M() int { return c.in.M }

// N returns the task count.
func (c *Compiled) N() int { return len(c.off) - 1 }

// MaxProcs returns the profile width of task i.
func (c *Compiled) MaxProcs(i int) int { return c.off[i+1] - c.off[i] }

// Time returns t_i(p) from the flattened matrix; p must be in 1..MaxProcs(i).
func (c *Compiled) Time(i, p int) float64 { return c.times[c.off[i]+p-1] }

// Work returns w_i(p) = p·t_i(p), the same single multiplication as
// task.Work.
func (c *Compiled) Work(i, p int) float64 { return float64(p) * c.Time(i, p) }

// SeqTime returns t_i(1).
func (c *Compiled) SeqTime(i int) float64 { return c.times[c.off[i]] }

// Gamma returns the canonical processor count γ_i(λ) = min{p : t_i(p) ≤ λ}
// and whether it exists. It is task.Canonical's algorithm — reject when the
// last entry misses λ, else sort.Search's bisection over task.Leq — run on
// the flattened row, so the two agree bit for bit on every input (an empty
// row reports no allotment instead of panicking).
func (c *Compiled) Gamma(i int, lambda float64) (int, bool) {
	row := c.times[c.off[i]:c.off[i+1]]
	if len(row) == 0 || !task.Leq(row[len(row)-1], lambda) {
		return 0, false
	}
	lo, hi := 0, len(row)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if task.Leq(row[h], lambda) {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo + 1, true
}

// Segment locates λ ≥ 0 on the piecewise-constant axis of the canonical
// allotment: Σ_i k_i(λ), where k_i is MaxProcs(i)−γ_i(λ)+1 when γ_i
// exists and 0 otherwise (on a monotone row, the number of entries with
// task.Leq(t_i(p), λ)). Every k_i is non-decreasing in λ — task.Leq is
// monotone in λ and Gamma's bisection result is monotone in its predicate
// even on non-monotone rows — and determines γ_i. So two deadlines with
// equal sums have equal k_i for every task, hence identical canonical
// allotments, sort orders, canonical work and prefix area; and the sum
// changes exactly where the allotment vector does. That is what lets a
// probe reuse the previous probe's derived tables whenever the segment
// repeats. O(n log m) per call.
func (c *Compiled) Segment(lambda float64) int {
	seg := 0
	for i := 0; i < c.N(); i++ {
		if g, ok := c.Gamma(i, lambda); ok {
			seg += c.MaxProcs(i) - g + 1
		}
	}
	return seg
}

// SeqOrder returns the precompiled stable order of non-increasing
// sequential time. The returned slice aliases the compiled table; callers
// must not modify it.
func (c *Compiled) SeqOrder() []int { return c.seqOrder }
