package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"malsched"
	"malsched/internal/core"
	"malsched/internal/sim"
	"malsched/internal/wire"
)

func TestNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for _, c := range []struct {
		p            float64
		value        float64
		beyond, size int
	}{
		{50, 50, 50, 100},
		{99, 99, 1, 100},
		{100, 100, 0, 100},
		{1, 1, 99, 100},
		{0.5, 1, 99, 100},
	} {
		got := s.pct(c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.N != c.size {
			t.Errorf("p%g = %+v, want value %g, %d beyond of %d", c.p, got, c.value, c.beyond, c.size)
		}
	}
	// A p99 over 1000 samples leaves exactly ten beyond it.
	var k samples
	for i := 0; i < 1000; i++ {
		k.add(float64(i))
	}
	if got := k.pct(99); got.Value != 989 || got.Beyond != 10 {
		t.Errorf("p99 of 0..999 = %+v, want 989 with 10 beyond", got)
	}
	if got := (samples{}).pct(50); got.N != 0 {
		t.Errorf("empty set: %+v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{
		{start: 10, end: 30},
		{start: 20, end: 40},  // overlaps the first child
		{start: 90, end: 120}, // sticks out of the parent
		{start: 50, end: 50},  // empty
	}
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("selfTime = %d, want 60 (covered: 10–40 and 90–100)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}

	tr := newTracer()
	tr.add("op", -1, 0, 0, 100)
	tr.add("a", 0, 0, 0, 40)
	tr.add("b", 1, 0, 10, 20) // grandchild: covered by a already
	tr.add("op", -1, 1, 200, 300)
	if got := tr.coverage(0, "op"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("coverage = %g, want 0.2 (40 of 200 ns)", got)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a, b := poissonGaps(7, 1500, 20000), poissonGaps(7, 1500, 20000)
	c := poissonGaps(8, 1500, 20000)
	same, total := true, time.Duration(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs between two schedules of one seed", i)
		}
		same = same && a[i] == c[i]
		total += a[i]
	}
	if same {
		t.Fatal("two seeds gave the same schedule")
	}
	if mean := total.Seconds() / float64(len(a)); math.Abs(mean*1500-1) > 0.03 {
		t.Errorf("mean gap %.6fs, want about 1/1500 s", mean)
	}
	s1, s2 := newStream(3), newStream(3)
	for i := 0; i < 300; i++ {
		r1, err1 := s1.request()
		r2, err2 := s2.request()
		if err1 != nil || err2 != nil || r1.id != r2.id || r1.binary != r2.binary || !bytes.Equal(r1.body, r2.body) {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
	}
}

// checkFailures returns a run's failed checks other than the sample-count
// ones a test-sized run always trips.
func checkFailures(rep *report) []string {
	var out []string
	for _, p := range rep.problems {
		if !strings.Contains(p, "samples beyond") {
			out = append(out, p)
		}
	}
	return out
}

// smallConfig shrinks a run to test size.
func smallConfig(w string) *config {
	return &config{workload: w, seed: 5, seconds: 0.4, scale: 0.1}
}

func TestCorruptedPlanFailsRun(t *testing.T) {
	cfg := smallConfig("cold-mrt")
	rep := newReport()
	if err := coldMRT.run(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if p := checkFailures(rep); len(p) != 0 {
		t.Fatalf("clean run reported problems: %v", p)
	}

	cfg.corrupt = func(v any) {
		r := v.(*malsched.Result)
		r.Plan.Placements[0].Start += r.Makespan / 2
	}
	rep = newReport()
	if err := coldMRT.run(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if len(checkFailures(rep)) == 0 {
		t.Fatal("a corrupted plan passed the run's checks")
	}
	var out bytes.Buffer
	if printReport(&out, cfg, coldMRT, rep) != nil || !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("report of a failed run does not say correct=false:\n%s", out.String())
	}

	// The simulator's timelines are checked the same way.
	cfg = smallConfig("replan-online")
	cfg.corrupt = func(v any) {
		r := v.(*sim.Result)
		r.Timeline[0].Duration *= 2
	}
	rep = newReport()
	if err := replanOnline.run(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if len(checkFailures(rep)) == 0 {
		t.Fatal("a corrupted timeline passed the run's checks")
	}
}

func TestCorruptedResponseFailsCheck(t *testing.T) {
	src := newStream(11)
	reqs, err := src.take(4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack()
	if err != nil {
		t.Fatal(err)
	}
	defer st.rt.Close()
	outs := make([]outcome, len(reqs))
	for i := range reqs {
		outs[i].status, outs[i].body = send(st.rt.Handler(), &reqs[i])
	}
	rep := newReport()
	if got := newChecker(rep).check(reqs, outs, nil); len(got) != len(reqs) || len(rep.problems) != 0 {
		t.Fatalf("clean responses: %d verified, problems %v", len(got), rep.problems)
	}
	rep = newReport()
	newChecker(rep).check(reqs, outs, func(v any) {
		r := v.(*wire.ScheduleResponse)
		r.Makespan *= 0.5
	})
	if len(rep.problems) != len(reqs) {
		t.Fatalf("corrupted responses: %d problems, want %d", len(rep.problems), len(reqs))
	}
}

func TestDecomposedColdOpMatchesFacade(t *testing.T) {
	cfg := &config{seed: 9, scale: 0.1}
	ops := coldOps(cfg)
	tr := newTracer()
	p := &timingProber{tr: tr, outcomes: make(map[core.RejectReason]int)}
	for k := range ops {
		want, err := malsched.Schedule(ops[k].in, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coldOp(tr, p, ops[k].in, int32(k))
		if err != nil {
			t.Fatal(err)
		}
		if planDigest(got.Makespan, got.LowerBound, got.Schedule, got.Probes) != digestOf(want) || got.Branch != want.Branch {
			t.Fatalf("%s: decomposed op differs from facade Schedule", ops[k].in.Name)
		}
	}
	if c := tr.coverage(0, "op.cold-mrt"); !(c > 0.5 && c <= 1) {
		t.Errorf("coverage %g out of range", c)
	}
}

func TestHistQuantile(t *testing.T) {
	before := `x_bucket{stage="queue",shard="0",le="3"} 2
x_bucket{stage="queue",shard="0",le="+Inf"} 2
`
	after := `x_bucket{stage="queue",shard="0",le="3"} 2
x_bucket{stage="queue",shard="0",le="7"} 12
x_bucket{stage="queue",shard="0",le="+Inf"} 12
x_bucket{stage="solve",shard="0",le="900"} 50
x_bucket{stage="queue",shard="1",le="15"} 1
x_bucket{stage="queue",shard="1",le="+Inf"} 1
`
	q, n := histQuantile([]string{before}, []string{after}, "x", "queue", 0.99)
	if q != 15 || n != 11 {
		t.Errorf("p99 = %g over %d, want 15 over 11", q, n)
	}
	q, _ = histQuantile([]string{before}, []string{after}, "x", "queue", 0.5)
	if q != 7 {
		t.Errorf("p50 = %g, want 7", q)
	}
}

func TestSLORate(t *testing.T) {
	point := func(clients int, rate float64, p99 float64) ladderPoint {
		lat := make(samples, 100)
		for i := range lat {
			lat[i] = p99 / 2
		}
		lat[98], lat[99] = p99, p99 // the nearest-rank p99 of 100 samples is the 99th
		return ladderPoint{clients: clients, lat: lat, n: int(rate), wall: time.Second}
	}
	pts := []ladderPoint{point(1, 1000, 2), point(2, 2000, 4), point(4, 3000, 8), point(8, 3200, 12)}
	// 10 ms lies halfway between 8 ms at 3000/s and 12 ms at 3200/s.
	if got := sloRate(pts); math.Abs(got-3100) > 1e-9 {
		t.Errorf("sloRate = %g, want 3100", got)
	}
	if got := sloRate(pts[:3]); math.Abs(got-3000) > 1e-9 {
		t.Errorf("sloRate with every level within the SLO = %g, want the top rate 3000", got)
	}
	pts[3].lat[99] = math.Inf(1) // a failed request
	pts[3].lat[98] = math.Inf(1)
	if got := sloRate(pts); math.Abs(got-3000) > 1e-9 {
		t.Errorf("sloRate with failures at the top = %g, want 3000", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q / %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil && *g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
}

type metricJSON struct {
	Name, Unit, Better string
	Bound              *float64
}
