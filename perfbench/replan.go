package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"malsched/internal/sim"
	"malsched/internal/verify"
	"malsched/internal/workload"
)

var replanOnline = &workloadDef{
	name: "replan-online",
	why: "sim.Run replan-on-arrival with repartition and warm replanning: many small residual re-solves " +
		"through engine.ScheduleWarm; where warm start must earn its keep",
	run:        runReplan,
	traced:     tracedReplan,
	traceShare: 0.2,
}

// replanTraces draws the replan-online traces: 24 seeded traces,
// Poisson mixed traces (300 jobs, m = 64, rate 8) alternating with
// comm-heavy bursts (300 jobs, m = 64, 30 bursts of 10 every 2 time
// units).
func replanTraces(cfg *config) ([]*workload.Trace, error) {
	k := cfg.scaled(24)
	trs := make([]*workload.Trace, 0, k)
	for i := 0; i < k; i++ {
		s := mix(cfg.seed, 2000, i)
		var tr *workload.Trace
		var err error
		if i%2 == 0 {
			tr, err = workload.Poisson(s, 300, 64, 8, "mixed")
		} else {
			tr, err = workload.Burst(s, 300, 64, 30, 2, "comm-heavy")
		}
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
	}
	return trs, nil
}

// replanConfig is the simulated policy: replan on every arrival,
// preempting and re-allotting running jobs, warm replanning (the default).
func replanConfig(observe func(ns int64)) sim.Config {
	return sim.Config{Policy: "replan-on-arrival", Preempt: "repartition", SolveObserver: observe}
}

// simDigest hashes an executed run: every metric and every span.
func simDigest(res *sim.Result) uint64 {
	m := res.Metrics
	h := newFNV()
	for _, v := range []float64{m.Makespan, m.MeanFlow, m.MaxFlow, m.Utilization, m.QueueMean, m.LowerBound} {
		h.f64(v)
	}
	for _, v := range []int{m.QueueMax, m.Plans, m.Probes, m.Synthesized, m.Preemptions, m.Revoked, m.Spans} {
		h.int(v)
	}
	for _, sp := range res.Timeline {
		h.int(sp.Job)
		h.int(sp.Width)
		for _, p := range sp.Procs {
			h.int(p)
		}
		h.f64(sp.Start)
		h.f64(sp.Duration)
		h.f64(sp.Noise)
	}
	return uint64(h)
}

// recordReplans returns a solve observer that files the i-th replan of a
// run of trace k under dec[k][i]: the same trace replans the same
// decisions in the same order on every run.
func recordReplans(dec []byInput, k int) func(ns int64) {
	i := 0
	return func(ns int64) {
		if i == len(dec[k]) {
			dec[k] = append(dec[k], nil)
		}
		dec[k][i].add(float64(ns) / 1e6)
		i++
	}
}

// flatten lists every trace's replan decisions as one set of inputs.
func flatten(dec []byInput) byInput {
	var out byInput
	for _, d := range dec {
		out = append(out, d...)
	}
	return out
}

// checkRun verifies an executed timeline against its trace.
func checkRun(tr *workload.Trace, res *sim.Result) error {
	return verify.Timeline(tr.M, sim.TimelineJobs(tr), res.Timeline)
}

func runReplan(cfg *config, rep *report) error {
	trs, setup, err := timedSetup(func() ([]*workload.Trace, error) {
		trs, err := replanTraces(cfg)
		if err != nil {
			return nil, err
		}
		// Warm-up: one simulation of each kind.
		for _, tr := range trs[:min(2, len(trs))] {
			if _, err := sim.Run(tr, replanConfig(nil)); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", tr.Name, err)
			}
		}
		return trs, nil
	})
	if err != nil {
		return err
	}
	rep.metrics["setup_s"] = setup
	K := len(trs)

	// Serial segments: pass 0 completes whatever the budget, is verified
	// and fixes each trace's reference digest.
	refs := make([]uint64, K)
	pass0 := make([]*sim.Result, K)
	serialDec := make([]byInput, K)
	runWall := make(byInput, K)
	var serialAlloc uint64
	n := 0
	serial := func(d time.Duration) {
		alloc0, harness := totalAlloc(), uint64(0)
		deadline := time.Now().Add(d)
		for ; n < K || time.Now().Before(deadline); n++ {
			tr := trs[n%K]
			t0 := time.Now()
			res, err := sim.Run(tr, replanConfig(recordReplans(serialDec, n%K)))
			runWall[n%K].add(time.Since(t0).Seconds())
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("%s: %v", tr.Name, err)
				continue
			}
			if cfg.corrupt != nil {
				cfg.corrupt(res)
			}
			dg := simDigest(res)
			if n < K {
				refs[n], pass0[n] = dg, res
			} else if dg != refs[n%K] {
				rep.fail("%s: run differs from the first run of the same trace", tr.Name)
			}
			if n == K-1 {
				a := totalAlloc()
				for k, r := range pass0 {
					if r == nil {
						continue
					}
					if err := checkRun(trs[k], r); err != nil {
						rep.fail("%s: %v", trs[k].Name, err)
					}
				}
				harness += totalAlloc() - a
			}
		}
		serialAlloc += totalAlloc() - alloc0 - harness
	}

	// Saturated segments: GOMAXPROCS simulations at once.
	workers := runtime.GOMAXPROCS(0)
	highDec := make([]byInput, K)
	var satWall time.Duration
	var next atomic.Int64
	saturated := func(d time.Duration) {
		decs := make([][]byInput, workers)
		bad := make([]int, workers)
		runs := make([]int, workers)
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for w := 0; w < workers; w++ {
			decs[w] = make([]byInput, K)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					k := int(next.Add(1)-1) % K
					res, err := sim.Run(trs[k], replanConfig(recordReplans(decs[w], k)))
					runs[w]++
					if err != nil || simDigest(res) != refs[k] {
						bad[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		satWall += time.Since(start)
		for w := range decs {
			for k := range decs[w] {
				for i, d := range decs[w][k] {
					if i == len(highDec[k]) {
						highDec[k] = append(highDec[k], nil)
					}
					highDec[k][i] = append(highDec[k][i], d...)
				}
			}
			rep.attempted += runs[w]
			rep.failed += bad[w]
			if bad[w] > 0 {
				rep.fail("saturated phase: %d runs failed or differ from their first run", bad[w])
			}
		}
	}
	interleave(cfg, serial, saturated)

	var ratios, flows []float64
	for _, r := range pass0 {
		if r != nil {
			ratios = append(ratios, r.Metrics.Makespan/r.Metrics.LowerBound)
			flows = append(flows, r.Metrics.MeanFlow)
		}
	}
	pass0 = nil

	lat, high := flatten(serialDec).denoised(), flatten(highDec).denoised()
	plans, medWall := 0, 0.0
	for k := range serialDec {
		plans += len(serialDec[k])
		medWall += runWall[k].median()
	}
	rep.setPct("p50_ms", lat, 50)
	rep.setPct("p99_ms", lat, 99)
	rep.setPct("p50_ms.high", high, 50)
	rep.setPct("p99_ms.high", high, 99)
	rep.metrics["ops_per_s"] = float64(plans) / medWall
	rep.metrics["max_rps_slo"] = float64(len(high)) / satWall.Seconds()
	rep.metrics["ratio_mean"] = mean(ratios)
	rep.metrics["flow_mean"] = mean(flows)
	rep.metrics["alloc_kb_per_op"] = float64(serialAlloc) / float64(len(lat)) / 1024
	rep.metrics["success_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.prov["ops"] = map[string]int{"traces": K, "replans": len(lat), "replans_saturated": len(high), "workers": workers}
	rep.prov["digest"] = fmt.Sprintf("%016x", combine(refs))
	// What the simulator retains: neither the traces nor the samples.
	trs, serialDec, highDec, lat, high = nil, nil, nil, nil, nil
	rep.metrics["live_heap_mb"] = liveHeapMB()
	return nil
}

func tracedReplan(cfg *config, rep *report, tr *tracer, d time.Duration) error {
	trs, err := replanTraces(cfg)
	if err != nil {
		return err
	}
	K := len(trs)

	// Untraced reference: each trace's simulation wall time.
	untracedPer := make([]samples, K)
	want := make([]uint64, K)
	deadline := time.Now().Add(d * 2 / 5)
	for n := 0; n < K || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		res, err := sim.Run(trs[n%K], replanConfig(func(int64) {}))
		untracedPer[n%K].addDur(time.Since(t0))
		if err != nil {
			return fmt.Errorf("%s: %w", trs[n%K].Name, err)
		}
		if n < K {
			want[n] = simDigest(res)
		}
	}

	mark := len(tr.spans)
	tracedPer := make([]samples, K)
	got := make([]uint64, K)
	var plans, probes, synth int
	deadline = time.Now().Add(d * 3 / 5)
	for n := 0; n < K || time.Now().Before(deadline); n++ {
		k, op := n%K, int32(n)
		root := tr.begin("op.replan-online", -1, op)
		s := tr.begin("sim.Run", root, op)
		res, err := sim.Run(trs[k], replanConfig(func(ns int64) {
			end := tr.now()
			tr.add("engine.replan", s, op, end-ns, end)
		}))
		tr.end(s)
		tracedPer[k].add(float64(tr.spans[s].dur()) / 1e6)
		if err != nil {
			tr.end(root)
			return fmt.Errorf("%s: %w", trs[k].Name, err)
		}
		v := tr.begin("verify.Timeline", root, op)
		err = checkRun(trs[k], res)
		tr.end(v)
		tr.end(root)
		if err != nil {
			rep.fail("traced %s: %v", trs[k].Name, err)
		}
		if n < K {
			got[n] = simDigest(res)
			plans += res.Metrics.Plans
			probes += res.Metrics.Probes
			synth += res.Metrics.Synthesized
		}
	}
	if combine(got) != combine(want) {
		rep.fail("replan-online: traced digest %016x differs from the untraced %016x", combine(got), combine(want))
	}
	untraced := make([]float64, K)
	traced := make([]float64, K)
	for k := range untracedPer {
		untraced[k], traced[k] = untracedPer[k].median(), tracedPer[k].median()
	}
	rep.metrics["sim.plans_per_run"] = float64(plans) / float64(K)
	rep.metrics["sim.probes_per_plan"] = float64(probes) / float64(plans)
	rep.metrics["sim.synth_share"] = float64(synth) / float64(probes+synth)
	rep.metrics["sim.exec_share"] = 1 - tr.coverage(mark, "sim.Run")
	rep.metrics["verify.timeline_ms.p50"] = tr.durations(mark, "verify.Timeline").pct(50).Value
	rep.metrics["trace.coverage.replan-online"] = tr.coverage(mark, "op.replan-online")
	rep.metrics["trace.overhead.replan-online"] = pairedOverhead(traced, untraced)
	rep.attempted += K
	rep.prov["replan-online"] = map[string]any{
		"traces":     K,
		"traced_ops": len(tr.durations(mark, "sim.Run")),
		"digest":     fmt.Sprintf("%016x", combine(want)),
	}
	return nil
}
