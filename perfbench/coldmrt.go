package main

import (
	"fmt"
	"time"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/verify"
)

var coldMRT = &workloadDef{
	name: "cold-mrt",
	why: "default traffic: unique instances through facade Schedule; compile-heavy at 100x256 and 400x64, " +
		"search-heavy at 25x16; never touches memo, codecs or DAG refinement",
	run: func(cfg *config, rep *report) error {
		return runStatic(cfg, rep, func() []staticOp { return coldOps(cfg) })
	},
	traced:     tracedColdMRT,
	traceShare: 0.2,
}

// coldSizes are the (n, m) cells of cold-mrt.
var coldSizes = [][2]int{{25, 16}, {100, 64}, {100, 256}, {400, 64}}

// coldOps draws the cold-mrt inputs: per (family, size) cell a dozen
// seeded instances of every instance.Families family, default options.
func coldOps(cfg *config) []staticOp {
	fams := instance.Families()
	names := familyNames()
	per := cfg.scaled(12)
	var ops []staticOp
	for ci, sz := range coldSizes {
		for fi, name := range names {
			for j := 0; j < per; j++ {
				in := fams[name](mix(cfg.seed, ci*len(names)+fi, j), sz[0], sz[1])
				ops = append(ops, staticOp{in: in})
			}
		}
	}
	shuffleOps(ops, cfg.seed)
	return ops
}

// timingProber wraps the paper's dual step in a span per probe and counts
// probe outcomes by reject reason.
type timingProber struct {
	tr         *tracer
	parent, op int32
	outcomes   map[core.RejectReason]int
}

func (p *timingProber) Probe(in *instance.Instance, c *instance.Compiled, lambda float64, prm core.Params, sc *core.Scratch, interrupt <-chan struct{}) core.StepResult {
	id := p.tr.begin("core.probe", p.parent, p.op)
	r := core.DualProber{}.Probe(in, c, lambda, prm, sc, interrupt)
	p.tr.end(id)
	p.outcomes[r.Reject]++
	return r
}

// coldOp is the traced cold-mrt op: the facade's mrt path decomposed into
// its layer calls — Compile, the λ-search over the compiled tables, and
// the contiguous plan check — each in its own span.
func coldOp(tr *tracer, p *timingProber, in *instance.Instance, op int32) (core.Result, error) {
	root := tr.begin("op.cold-mrt", -1, op)
	defer tr.end(root)
	s := tr.begin("instance.Compile", root, op)
	c := instance.Compile(in)
	tr.end(s)
	s = tr.begin("core.Approximate", root, op)
	p.parent, p.op = s, op
	res, err := core.Approximate(in, core.Options{Compiled: c, Prober: p})
	tr.end(s)
	if err != nil {
		return res, err
	}
	s = tr.begin("verify.Plan", root, op)
	err = verify.Plan(in, verify.Certified{Plan: res.Schedule, Makespan: res.Makespan, LowerBound: res.LowerBound}, true)
	tr.end(s)
	return res, err
}

func tracedColdMRT(cfg *config, rep *report, tr *tracer, d time.Duration) error {
	ops := coldOps(cfg)
	K := len(ops)
	untraced, want, err := facadeReference(rep, ops, d*2/5)
	if err != nil {
		return err
	}

	a := totalAlloc()
	for k := range ops {
		instance.Compile(ops[k].in)
	}
	rep.metrics["instance.compile_kb"] = float64(totalAlloc()-a) / float64(K) / 1024

	mark := len(tr.spans)
	p := &timingProber{tr: tr, outcomes: make(map[core.RejectReason]int)}
	per := make([]samples, K)
	refs := make([]uint64, K)
	var probes []float64
	deadline := time.Now().Add(d * 3 / 5)
	for n := 0; n < K || time.Now().Before(deadline); n++ {
		k := n % K
		t0 := time.Now()
		res, err := coldOp(tr, p, ops[k].in, int32(n))
		per[k].addDur(time.Since(t0))
		if err != nil {
			rep.fail("traced %s: %v", ops[k].in.Name, err)
			continue
		}
		if n < K {
			refs[n] = planDigest(res.Makespan, res.LowerBound, res.Schedule, res.Probes)
			probes = append(probes, float64(res.Probes))
		}
	}
	if got := combine(refs); got != want {
		rep.fail("cold-mrt: traced digest %016x differs from the facade's %016x", got, want)
	}

	traced := make([]float64, K)
	for k := range per {
		traced[k] = per[k].median()
	}
	total := 0
	reasons := make(map[string]int)
	for r, c := range p.outcomes {
		total += c
		reasons[r.String()] = c
	}
	rep.metrics["instance.compile_ms.p50"] = tr.durations(mark, "instance.Compile").pct(50).Value
	rep.metrics["core.search_ms.p50"] = tr.durations(mark, "core.Approximate").pct(50).Value
	probeUS := tr.durations(mark, "core.probe")
	for i := range probeUS {
		probeUS[i] *= 1000
	}
	rep.setPct("core.probe_us.p50", probeUS, 50)
	rep.setPct("core.probe_us.p99", probeUS, 99)
	rep.metrics["core.probes_per_op"] = mean(probes)
	rep.metrics["core.accept_share"] = float64(p.outcomes[core.RejectNone]) / float64(total)
	rep.metrics["trace.coverage.cold-mrt"] = tr.coverage(mark, "op.cold-mrt")
	rep.metrics["trace.overhead.cold-mrt"] = pairedOverhead(traced, untraced)
	rep.attempted += K
	rep.prov["cold-mrt"] = map[string]any{
		"inputs":        K,
		"traced_ops":    len(tr.durations(mark, "op.cold-mrt")),
		"probe_reasons": reasons,
		"digest":        fmt.Sprintf("%016x", want),
	}
	return nil
}
