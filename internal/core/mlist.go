package core

import (
	"sort"

	"malsched/internal/instance"
	"malsched/internal/rigid"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// MalleableList builds the §3.1 schedule for deadline guess lambda: every
// task gets the minimal allotment meeting the relaxed deadline
// (2−2/(m+1))·λ; all parallel tasks then start at time 0 side by side
// (Properties 1+2 guarantee they fit when the canonical work test of
// DualStep passed) and the sequential rest is LPT-scheduled behind them in
// non-increasing t(1) order. Theorem 1: the result has makespan ≤
// (2−2/(m+1))·λ whenever a schedule of length ≤ λ exists.
//
// It returns nil when the construction's preconditions fail, which
// certifies (through Properties 1 and 2) that no schedule of length ≤ λ
// exists.
func MalleableList(in *instance.Instance, lambda float64) *schedule.Schedule {
	sc := getScratch()
	s := malleableList(legacyView(in), lambda, sc)
	putScratch(sc)
	return s
}

// malleableList is MalleableList on scratch memory, legacy or compiled per
// the view. The compiled path resolves the relaxed-deadline allotment
// through the mseg segment cache and reuses the precompiled sequential
// order instead of re-sorting per probe.
func malleableList(v view, lambda float64, sc *Scratch) *schedule.Schedule {
	in := v.in
	m := in.M
	rhoM := RhoList(m)
	deadline := rhoM * lambda

	var alloc []int
	var order []int
	if v.c != nil {
		e := sc.mseg.entry(v.c, v.c.Segment(deadline))
		if !e.haveGamma {
			e.fillGamma(v.c, deadline)
		}
		if !e.ok {
			return nil // not even the relaxed deadline is reachable
		}
		alloc = e.gamma
		order = v.c.SeqOrder()
	} else {
		alloc = intsBuf(&sc.alloc, in.N())
		for i, t := range in.Tasks {
			g, ok := t.Canonical(deadline)
			if !ok {
				return nil // not even the relaxed deadline is reachable
			}
			alloc[i] = g
		}
		// Parallel tasks first, by non-increasing sequential time (every
		// parallel task has t(1) > deadline ≥ any sequential task's t(1),
		// so one global sort realises the paper's ordering).
		order = intsBuf(&sc.morder, in.N())
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return in.Tasks[order[a]].SeqTime() > in.Tasks[order[b]].SeqTime()
		})
	}

	s := &schedule.Schedule{Algorithm: "malleable-list", Placements: make([]schedule.Placement, 0, len(order))}
	x := 0
	seq := sc.seq[:0]
	for _, i := range order {
		if alloc[i] >= 2 {
			if x+alloc[i] > m {
				return nil // Property 1+2 violated: OPT > λ
			}
			s.Placements = append(s.Placements, schedule.Placement{
				Task: i, Start: 0, Width: alloc[i], First: x,
			})
			x += alloc[i]
		} else {
			seq = append(seq, i)
		}
	}

	sc.seq = seq // keep the grown backing array for the next probe

	// Release times: processors under a parallel task free at its end.
	release := floatsBuf(&sc.release, m)
	for _, p := range s.Placements {
		end := p.End(in)
		for k := p.First; k < p.First+p.Width; k++ {
			release[k] = end
		}
	}
	durations := floatsBuf(&sc.durations, len(seq))
	for k, i := range seq {
		durations[k] = v.seqTime(i)
	}
	// seq is already in non-increasing t(1) order; LPT in index order.
	proc, start := rigid.LPT(m, durations, release, nil)
	for k, i := range seq {
		s.Placements = append(s.Placements, schedule.Placement{
			Task: i, Start: start[k], Width: 1, First: proc[k],
		})
	}

	// Defensive check of Theorem 1's promise; callers treat nil as "reject".
	if !task.Leq(s.Makespan(in), deadline) {
		return nil
	}
	return s
}
