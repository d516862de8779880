package main

import (
	"fmt"
	"time"

	"malsched"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/verify"
)

var dagSolve = &workloadDef{
	name: "dag-solve",
	why: "facade Schedule with the dag solver on unique out-tree and random DAGs; the refinement hill-climb " +
		"dominates, the lambda-search and knapsack are untouched",
	run: func(cfg *config, rep *report) error {
		return runStatic(cfg, rep, func() []staticOp { return dagOps(cfg) })
	},
	traced:     tracedDAG,
	traceShare: 0.25,
}

// dagOps draws the dag-solve inputs: 32 seeded mixed, comm-heavy and
// wide-parallel instances per n ∈ {40, 60} and m ∈ {32, 64}, alternating
// an arity-2 out-tree and a random DAG with edge probability 0.05.
func dagOps(cfg *config) []staticOp {
	fams := instance.Families()
	names := []string{"mixed", "comm-heavy", "wide-parallel"}
	per := cfg.scaled(32)
	var ops []staticOp
	cell := 0
	for _, name := range names {
		for _, n := range []int{40, 60} {
			for _, m := range []int{32, 64} {
				for j := 0; j < per; j++ {
					s := mix(cfg.seed, 1000+cell, j)
					in := fams[name](s, n, m)
					var edges [][]int
					if j%2 == 0 {
						edges, _ = precedence.OutTreeEdges(n, 2) // arity 2 is always valid
					} else {
						edges = precedence.RandomEdges(s, n, 0.05)
					}
					ops = append(ops, staticOp{in: in, opts: &malsched.Options{Solver: "dag", Edges: edges}})
				}
				cell++
			}
		}
	}
	shuffleOps(ops, cfg.seed)
	return ops
}

// dagOp is the traced dag-solve op: the dag solver decomposed into graph
// construction, compilation, the full heuristic over the compiled tables
// and both plan checks.
func dagOp(tr *tracer, in *instance.Instance, edges [][]int, op int32) (dagTraced, error) {
	var out dagTraced
	root := tr.begin("op.dag-solve", -1, op)
	defer tr.end(root)
	s := tr.begin("precedence.NewGraph", root, op)
	g, err := precedence.NewGraph(in, edges)
	tr.end(s)
	if err != nil {
		return out, err
	}
	s = tr.begin("instance.Compile", root, op)
	c := instance.Compile(in)
	tr.end(s)
	s = tr.begin("precedence.Solve", root, op)
	r, err := g.Solve(precedence.Options{Compiled: c})
	tr.end(s)
	if err != nil {
		return out, err
	}
	out.g, out.c, out.solveNS = g, c, tr.spans[s].dur()
	mk, lb := r.Schedule.Makespan(in), g.LowerBound()
	out.digest = planDigest(mk, lb, r.Schedule, r.Probes)
	s = tr.begin("verify.Plan", root, op)
	err = verify.Plan(in, verify.Certified{Plan: r.Schedule, Makespan: mk, LowerBound: lb}, false)
	tr.end(s)
	if err != nil {
		return out, err
	}
	s = tr.begin("verify.Precedence", root, op)
	err = verify.Precedence(in, edges, r.Schedule)
	tr.end(s)
	return out, err
}

// dagTraced is what a traced dag-solve op hands back for the phase
// measurements that follow it.
type dagTraced struct {
	g       *precedence.Graph
	c       *instance.Compiled
	digest  uint64
	solveNS int64
}

func tracedDAG(cfg *config, rep *report, tr *tracer, d time.Duration) error {
	ops := dagOps(cfg)
	K := len(ops)
	untraced, want, err := facadeReference(rep, ops, d*2/5)
	if err != nil {
		return err
	}
	mark := len(tr.spans)
	per := make([]samples, K)
	refs := make([]uint64, K)
	var search, list, refine samples
	var refineSum, solveSum float64
	deadline := time.Now().Add(d * 3 / 5)
	for n := 0; n < K || time.Now().Before(deadline); n++ {
		k := n % K
		t0 := time.Now()
		t, err := dagOp(tr, ops[k].in, ops[k].edges(), int32(n))
		per[k].addDur(time.Since(t0))
		if err != nil {
			rep.fail("traced %s: %v", ops[k].in.Name, err)
			continue
		}
		if n < K {
			refs[n] = t.digest
		}
		// The phases of the heuristic, outside the op: the crossover
		// search alone, and the plain crossover solve (search plus list
		// scheduling) over the same compiled tables.
		s := tr.begin("precedence.SelectAllotment", -1, int32(n))
		t.g.SelectAllotment()
		tr.end(s)
		sel := tr.spans[s].dur()
		s = tr.begin("precedence.SolveCrossover", -1, int32(n))
		_, err = t.g.SolveCrossover(precedence.Options{Compiled: t.c})
		tr.end(s)
		if err != nil {
			rep.fail("traced %s: crossover: %v", ops[k].in.Name, err)
			continue
		}
		cross := tr.spans[s].dur()
		full := t.solveNS
		search.add(float64(sel) / 1e6)
		list.add(float64(max(cross-sel, 0)) / 1e6)
		refine.add(float64(max(full-cross, 0)) / 1e6)
		refineSum += float64(max(full-cross, 0))
		solveSum += float64(full)
	}
	if got := combine(refs); got != want {
		rep.fail("dag-solve: traced digest %016x differs from the facade's %016x", got, want)
	}
	traced := make([]float64, K)
	for k := range per {
		traced[k] = per[k].median()
	}
	graphUS := tr.durations(mark, "precedence.NewGraph")
	for i := range graphUS {
		graphUS[i] *= 1000
	}
	precUS := tr.durations(mark, "verify.Precedence")
	for i := range precUS {
		precUS[i] *= 1000
	}
	rep.metrics["precedence.graph_us.p50"] = graphUS.pct(50).Value
	rep.metrics["precedence.search_ms.p50"] = search.pct(50).Value
	rep.metrics["precedence.list_ms.p50"] = list.pct(50).Value
	rep.metrics["precedence.refine_ms.p50"] = refine.pct(50).Value
	rep.metrics["precedence.refine_share"] = refineSum / solveSum
	rep.metrics["verify.precedence_us.p50"] = precUS.pct(50).Value
	rep.metrics["trace.coverage.dag-solve"] = tr.coverage(mark, "op.dag-solve")
	rep.metrics["trace.overhead.dag-solve"] = pairedOverhead(traced, untraced)
	rep.attempted += K
	rep.prov["dag-solve"] = map[string]any{
		"inputs":     K,
		"traced_ops": len(search),
		"digest":     fmt.Sprintf("%016x", want),
	}
	return nil
}
