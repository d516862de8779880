package instance

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"malsched/internal/task"
)

// compiledTestInstances is a spread of generator-family workloads plus a
// breakpoint-dense one (harmonic profiles: every t(p) = T/p is distinct, so
// every profile entry is its own breakpoint).
func compiledTestInstances() []*Instance {
	var ins []*Instance
	for name, gen := range Families() {
		_ = name
		for seed := int64(1); seed <= 3; seed++ {
			ins = append(ins, gen(seed, 20, 12))
		}
	}
	ins = append(ins, breakpointDense(7, 24, 16))
	return ins
}

// breakpointDense builds an instance whose profiles have all-distinct
// execution times (near-linear speedup with an irrational-ish skew), the
// worst case for the breakpoint tables: n·m distinct thresholds.
func breakpointDense(seed int64, n, m int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	for i := range tasks {
		w := 1 + 20*rng.Float64()
		times := make([]float64, m)
		for p := 1; p <= m; p++ {
			times[p-1] = w / (float64(p) * (1 + 0.001*float64(i+p)))
		}
		tasks[i] = task.MustNew("dense", task.Monotonize(times))
	}
	return MustNew("breakpoint-dense", m, tasks)
}

// edgeRows builds an instance around validation whose rows stress the
// segment key: a NaN row, an empty row, a +Inf row, a row with one NaN
// entry, and non-monotone rows dipping below and spiking above their
// neighbours — on which task.Leq holds on no contiguous suffix.
func edgeRows() *Instance {
	return &Instance{Name: "edge-rows", M: 8, Tasks: []task.Task{
		task.Linear("lin", 6, 8),
		task.Linear("nan", 6, 8).Scale(math.NaN()),
		{Name: "empty"},
		task.Linear("inf", 6, 8).Scale(math.Inf(1)),
		task.NonMonotone("nan-entry", 5, 3, math.NaN(), 8),
		task.NonMonotone("dip", 7, 4, 0.2, 8),
		task.NonMonotone("spike", 4, 2, 3, 8),
		task.NonMonotone("deep", 9, 8, 0.01, 8),
	}}
}

// leqBoundary returns the smallest λ ≥ 0 with task.Leq(t, λ) (+Inf when
// none does), by bisection over the float bit lattice: the bit patterns of
// non-negative floats order like their values, and the float-evaluated
// predicate is monotone in λ ≥ 0.
func leqBoundary(t float64) float64 {
	if task.Leq(t, 0) {
		return 0
	}
	hi := math.Inf(1)
	if !task.Leq(t, hi) {
		return hi
	}
	if t > 0 && !math.IsInf(t, 1) {
		hi = t // Leq(t, t) always holds
	}
	lb, hb := math.Float64bits(0), math.Float64bits(hi)
	for lb+1 < hb {
		mid := (lb + hb) / 2
		if task.Leq(t, math.Float64frombits(mid)) {
			hb = mid
		} else {
			lb = mid
		}
	}
	return math.Float64frombits(hb)
}

// lambdaSamples returns sorted, distinct deadlines ≥ 0 covering every
// place a canonical lookup can change: each profile time, the exact
// boundary where task.Leq on it flips, their float neighbours, plus random
// fill.
func lambdaSamples(c *Compiled, rng *rand.Rand) []float64 {
	set := map[float64]bool{0: true, math.Inf(1): true}
	add := func(l float64) {
		if l >= 0 {
			set[l] = true
		}
	}
	for _, tv := range c.times {
		for _, x := range []float64{tv, leqBoundary(tv)} {
			add(x)
			add(math.Nextafter(x, math.Inf(1)))
			add(math.Nextafter(x, math.Inf(-1)))
		}
	}
	for k := 0; k < 100; k++ {
		add(50 * rng.Float64())
	}
	ls := make([]float64, 0, len(set))
	for l := range set {
		ls = append(ls, l)
	}
	sort.Float64s(ls)
	return ls
}

// gammaVec is the canonical allotment vector at λ, -1 marking a task with
// no allotment.
func gammaVec(c *Compiled, l float64) []int {
	v := make([]int, c.N())
	for i := range v {
		g, ok := c.Gamma(i, l)
		if !ok {
			g = -1
		}
		v[i] = g
	}
	return v
}

// checkGamma fails t unless Gamma agrees with task.Canonical for every
// task at λ; an empty row (where Canonical would panic) must report no
// allotment.
func checkGamma(t testing.TB, in *Instance, c *Compiled, l float64) {
	t.Helper()
	for i, tk := range in.Tasks {
		gotG, gotOK := c.Gamma(i, l)
		if tk.MaxProcs() == 0 {
			if gotOK {
				t.Fatalf("%s: empty task %d reported γ=%d", in.Name, i, gotG)
			}
			continue
		}
		if wantG, wantOK := tk.Canonical(l); wantG != gotG || wantOK != gotOK {
			t.Fatalf("%s: task %d λ=%v: Gamma=(%d,%v), Canonical=(%d,%v)",
				in.Name, i, l, gotG, gotOK, wantG, wantOK)
		}
	}
}

// Gamma must agree with task.Canonical everywhere — random deadlines plus
// the adversarial ones: every profile time, the exact float where task.Leq
// on it flips, and their neighbours.
func TestCompiledGammaMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, in := range append(compiledTestInstances(), edgeRows()) {
		c := Compile(in)
		for _, l := range lambdaSamples(c, rng) {
			checkGamma(t, in, c, l)
		}
	}
}

// Segment must be non-decreasing in λ and change exactly where the
// canonical allotment vector does: along the sorted sample axis, two
// consecutive deadlines share a segment iff they share γ. On validated
// instances it must also equal the plain count of profile entries meeting
// the deadline.
func TestCompiledPiecewiseConstantAllotment(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, in := range append(compiledTestInstances(), edgeRows()) {
		c := Compile(in)
		validated := Check(in) == nil
		prevL, prevSeg, prevVec := -1.0, -1, []int(nil)
		for _, l := range lambdaSamples(c, rng) {
			seg, vec := c.Segment(l), gammaVec(c, l)
			if seg < prevSeg {
				t.Fatalf("%s: Segment decreased from %d at λ=%v to %d at λ=%v", in.Name, prevSeg, prevL, seg, l)
			}
			if same := reflect.DeepEqual(vec, prevVec); prevVec != nil && same != (seg == prevSeg) {
				t.Fatalf("%s: λ=%v→%v: segments %d→%d but allotment equal=%v (%v→%v)",
					in.Name, prevL, l, prevSeg, seg, same, prevVec, vec)
			}
			if validated {
				count := 0
				for _, tv := range c.times {
					if task.Leq(tv, l) {
						count++
					}
				}
				if seg != count {
					t.Fatalf("%s: λ=%v: Segment %d != entries meeting λ %d", in.Name, l, seg, count)
				}
			}
			prevL, prevSeg, prevVec = l, seg, vec
		}
	}
}

// The flattened matrices and the precompiled sequential order must mirror
// the task structs exactly.
func TestCompiledTablesMatchTasks(t *testing.T) {
	for _, in := range compiledTestInstances() {
		c := Compile(in)
		for i, tk := range in.Tasks {
			if c.MaxProcs(i) != tk.MaxProcs() {
				t.Fatalf("%s: task %d width %d != %d", in.Name, i, c.MaxProcs(i), tk.MaxProcs())
			}
			for p := 1; p <= tk.MaxProcs(); p++ {
				if c.Time(i, p) != tk.Time(p) || c.Work(i, p) != tk.Work(p) {
					t.Fatalf("%s: task %d p=%d matrix mismatch", in.Name, i, p)
				}
			}
			if c.SeqTime(i) != tk.SeqTime() {
				t.Fatalf("%s: task %d SeqTime mismatch", in.Name, i)
			}
		}
		want := make([]int, in.N())
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return in.Tasks[want[a]].SeqTime() > in.Tasks[want[b]].SeqTime()
		})
		if !reflect.DeepEqual(c.SeqOrder(), want) {
			t.Fatalf("%s: SeqOrder %v != legacy stable sort %v", in.Name, c.SeqOrder(), want)
		}
	}
}

// Compile must be safe on malformed instances built around validation —
// the service compiles at admission, before instance.Check runs.
func TestCompileDefensive(t *testing.T) {
	if Compile(nil) != nil {
		t.Fatal("Compile(nil) != nil")
	}
	for _, in := range []*Instance{
		{Name: "no-tasks", M: 4},
		{Name: "zero-task", M: 2, Tasks: make([]task.Task, 3)}, // empty profiles
	} {
		c := Compile(in)
		if c == nil {
			t.Fatalf("%s: Compile returned nil", in.Name)
		}
		for i := 0; i < c.N(); i++ {
			if g, ok := c.Gamma(i, 1); ok {
				t.Fatalf("%s: empty profile reported γ=%d", in.Name, g)
			}
		}
	}
}
