package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"malsched"
	"malsched/internal/instance"
)

// The two in-process workloads, cold-mrt and dag-solve, share one shape:
// a fixed, seeded set of facade calls, timed one at a time (serial phase)
// and then by GOMAXPROCS concurrent callers (saturated phase).

// setupRepeats is how often a run builds its inputs; setup_s is the
// median, so one slow repeat does not decide it.
const setupRepeats = 5

// staticOp is one facade call: an instance and its options (for DAG
// solves the options carry the edges).
type staticOp struct {
	in   *malsched.Instance
	opts *malsched.Options
}

// edges returns the op's precedence DAG (nil for independent tasks).
func (op *staticOp) edges() [][]int {
	if op.opts == nil {
		return nil
	}
	return op.opts.Edges
}

// check verifies one facade result: the plan and its certificates
// (contiguous blocks unless the op is a DAG solve, whose plans are not),
// and every precedence edge.
func (op *staticOp) check(res malsched.Result) error {
	e := op.edges()
	if err := malsched.Verify(op.in, res, e == nil); err != nil {
		return err
	}
	if e != nil {
		return malsched.VerifyPrecedence(op.in, e, res.Plan)
	}
	return nil
}

// digest is the result digest of a facade result.
func digestOf(res malsched.Result) uint64 {
	return planDigest(res.Makespan, res.LowerBound, res.Plan, res.Probes)
}

// flowOf is the mean task completion time of a plan: the flow time of
// jobs all released at 0.
func flowOf(in *malsched.Instance, res malsched.Result) float64 {
	var s float64
	for _, p := range res.Plan.Placements {
		s += p.End(in)
	}
	return s / float64(len(res.Plan.Placements))
}

// mix derives an input seed from the run seed and two indices
// (splitmix64), so neighbouring cells draw unrelated inputs.
func mix(seed int64, a, b int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(a)*0xbf58476d1ce4e5b9 + uint64(b)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// familyNames returns instance.Families' names, sorted.
func familyNames() []string {
	var names []string
	for k := range instance.Families() {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// shuffleOps puts the ops in a seeded order, so sizes interleave.
func shuffleOps(ops []staticOp, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

// totalAlloc returns the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timedSetup builds the inputs setupRepeats times and returns the last
// build with the median build time. The first repeat is timed from
// process start, so it also carries runtime start-up.
func timedSetup[T any](build func() (T, error)) (T, float64, error) {
	var out T
	var times samples
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		v, err := build()
		if err != nil {
			return out, 0, err
		}
		runtime.GC()
		times.add(time.Since(t0).Seconds())
		out = v
	}
	return out, times.median(), nil
}

// runStatic measures the untraced end-to-end metrics of an in-process
// workload whose ops are built by gen.
func runStatic(cfg *config, rep *report, gen func() []staticOp) error {
	ops, setup, err := timedSetup(func() ([]staticOp, error) {
		ops := gen()
		// Warm-up: one op per eight, so code paths and the heap are warm.
		for k := 0; k < len(ops); k += 8 {
			if _, err := malsched.Schedule(ops[k].in, ops[k].opts); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", ops[k].in.Name, err)
			}
		}
		return ops, nil
	})
	if err != nil {
		return err
	}
	rep.metrics["setup_s"] = setup
	K := len(ops)

	// Serial segments. Pass 0 runs to completion whatever the budget: its
	// results are verified and fix the reference digest of every op;
	// every later call must reproduce its op's digest bit for bit.
	refs := make([]uint64, K)
	pass0 := make([]malsched.Result, K)
	serialLat := make(byInput, K)
	var serialAlloc uint64
	n := 0
	serial := func(d time.Duration) {
		alloc0, harness := totalAlloc(), uint64(0)
		deadline := time.Now().Add(d)
		for ; n < K || time.Now().Before(deadline); n++ {
			op := &ops[n%K]
			t0 := time.Now()
			res, err := malsched.Schedule(op.in, op.opts)
			d := time.Since(t0)
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("%s: %v", op.in.Name, err)
				continue
			}
			if cfg.corrupt != nil {
				cfg.corrupt(&res)
			}
			serialLat[n%K].addDur(d)
			dg := digestOf(res)
			if n < K {
				refs[n], pass0[n] = dg, res
			} else if dg != refs[n%K] {
				rep.fail("%s: result differs from the first solve of the same input", op.in.Name)
			}
			if n == K-1 {
				a := totalAlloc()
				checkPass0(rep, ops, pass0)
				harness += totalAlloc() - a
			}
		}
		serialAlloc += totalAlloc() - alloc0 - harness
	}

	// Saturated segments: GOMAXPROCS callers share the op sequence.
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	highLat := make(byInput, K)
	var wall time.Duration
	saturated := func(d time.Duration) {
		lats := make([]byInput, workers)
		bad := make([]int, workers)
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for w := 0; w < workers; w++ {
			lats[w] = make(byInput, K)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					k := int(next.Add(1)-1) % K
					t0 := time.Now()
					res, err := malsched.Schedule(ops[k].in, ops[k].opts)
					d := time.Since(t0)
					if err != nil || digestOf(res) != refs[k] {
						bad[w]++
						continue
					}
					lats[w][k].addDur(d)
				}
			}(w)
		}
		wg.Wait()
		wall += time.Since(start)
		for w := range lats {
			for k := range lats[w] {
				highLat[k] = append(highLat[k], lats[w][k]...)
				rep.attempted += len(lats[w][k])
			}
			rep.attempted += bad[w]
			rep.failed += bad[w]
			if bad[w] > 0 {
				rep.fail("saturated phase: %d results failed or differ from their first solve", bad[w])
			}
		}
	}
	interleave(cfg, serial, saturated)

	var ratios, flows []float64
	for k := range pass0 {
		if pass0[k].Plan == nil {
			continue
		}
		ratios = append(ratios, pass0[k].Ratio())
		flows = append(flows, flowOf(ops[k].in, pass0[k]))
	}
	pass0 = nil

	lat, high := serialLat.denoised(), highLat.denoised()
	rep.setPct("p50_ms", lat, 50)
	rep.setPct("p99_ms", lat, 99)
	rep.setPct("p50_ms.high", high, 50)
	rep.setPct("p99_ms.high", high, 99)
	rep.metrics["ops_per_s"] = float64(len(lat)) / (lat.sum() / 1e3)
	rep.metrics["max_rps_slo"] = float64(len(high)) / wall.Seconds()
	rep.metrics["ratio_mean"] = mean(ratios)
	rep.metrics["flow_mean"] = mean(flows)
	rep.metrics["alloc_kb_per_op"] = float64(serialAlloc) / float64(len(lat)) / 1024
	rep.metrics["success_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.prov["ops"] = map[string]int{"inputs": K, "serial": len(lat), "saturated": len(high), "workers": workers}
	rep.prov["digest"] = fmt.Sprintf("%016x", combine(refs))
	// What the program retains: neither the inputs nor the samples.
	ops, serialLat, highLat, lat, high = nil, nil, nil, nil, nil
	rep.metrics["live_heap_mb"] = liveHeapMB()
	return nil
}

// rounds is how many serial and saturated segments a run alternates, so
// that each phase samples the whole run rather than one end of it.
const rounds = 4

// interleave runs the serial and saturated segments of a run: 60% and
// 40% of the measurement time, in rounds.
func interleave(cfg *config, serial, saturated func(time.Duration)) {
	for r := 0; r < rounds; r++ {
		serial(cfg.budget(0.6 / rounds))
		saturated(cfg.budget(0.4 / rounds))
	}
}

// checkPass0 verifies every first-pass result.
func checkPass0(rep *report, ops []staticOp, pass0 []malsched.Result) {
	for k := range pass0 {
		if pass0[k].Plan == nil {
			continue // already counted as failed
		}
		if err := ops[k].check(pass0[k]); err != nil {
			rep.fail("%s: %v", ops[k].in.Name, err)
		}
	}
}

// facadeReference times the facade on every op for at least one full
// pass and until d has passed; it returns each op's median time (ms) and
// the digest of the first pass. The traced runs compare against it.
func facadeReference(rep *report, ops []staticOp, d time.Duration) ([]float64, uint64, error) {
	K := len(ops)
	per := make([]samples, K)
	refs := make([]uint64, K)
	deadline := time.Now().Add(d)
	for n := 0; n < K || time.Now().Before(deadline); n++ {
		op := &ops[n%K]
		t0 := time.Now()
		res, err := malsched.Schedule(op.in, op.opts)
		per[n%K].addDur(time.Since(t0))
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", op.in.Name, err)
		}
		if n < K {
			refs[n] = digestOf(res)
			if err := op.check(res); err != nil {
				rep.fail("%s: %v", op.in.Name, err)
			}
		}
	}
	meds := make([]float64, K)
	for k := range per {
		meds[k] = per[k].median()
	}
	return meds, combine(refs), nil
}

// pairedOverhead is median_k(traced_k / untraced_k) − 1 over ops timed
// both ways: the cost of tracing, paired per input so the op mix cancels.
func pairedOverhead(traced, untraced []float64) float64 {
	var r samples
	for k := range traced {
		if untraced[k] > 0 && traced[k] > 0 {
			r.add(traced[k] / untraced[k])
		}
	}
	return r.median() - 1
}
