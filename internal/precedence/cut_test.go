package precedence

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// Time-table modes of the cut tests: real-valued profiles, integer
// profiles full of exact ties, and profiles whose scales span the whole
// float64 range (subnormal tasks next to ones whose chains overflow).
const (
	cutReal = iota
	cutTies
	cutWide
	cutModes
)

// cutTimes draws one monotone time table on m processors: time
// non-increasing and work non-decreasing, so task.New accepts it.
func cutTimes(rng *rand.Rand, m, mode int) []float64 {
	times := make([]float64, m)
	if mode == cutTies {
		// 840 = lcm(1..8): linear up to width r ≤ 8, flat beyond, all integer.
		work, r := float64(840*(1+rng.Intn(3))), 1+rng.Intn(min(m, 8))
		for p := range times {
			times[p] = work / float64(min(p+1, r))
		}
		return times
	}
	t1 := 1 + 9*rng.Float64()
	if mode == cutWide {
		// Half the tasks sit at the ends of the exponent range, so
		// subnormal times meet huge ones and chains of huge ones overflow.
		e := rng.Intn(2096) - 1074
		switch rng.Intn(4) {
		case 0:
			e = 1014 + rng.Intn(8)
		case 1:
			e = -1074 + rng.Intn(16)
		}
		t1 = math.Ldexp(1+rng.Float64(), e)
	}
	times[0] = t1
	for p := 1; p < m; p++ {
		// t(p+1) ∈ [t(p)·p/(p+1), t(p)] keeps both monotone conditions.
		f := (float64(p) + rng.Float64()) / float64(p+1)
		times[p] = times[p-1] * f
	}
	return times
}

// cutGraph builds a random instance and DAG: shape 0 has no tasks at all,
// 1 no edges, 2 a chain, 3 an out-tree, 4 a random DAG.
func cutGraph(tb testing.TB, rng *rand.Rand, n, m, shape, mode int) *Graph {
	tb.Helper()
	in := &instance.Instance{Name: "cut", M: m}
	if shape == 0 {
		n = 0
	}
	for i := 0; i < n; i++ {
		tk, err := task.New("t", cutTimes(rng, 1+rng.Intn(m), mode))
		if err != nil { // a wide table can round out of monotony
			tk = task.Sequential("t", 1, 1)
		}
		in.Tasks = append(in.Tasks, tk)
	}
	var edges [][]int
	switch shape {
	case 0, 1:
		edges = make([][]int, n)
	case 2:
		edges = ChainEdges(n)
	case 3:
		edges, _ = OutTreeEdges(n, 1+rng.Intn(3)) // arity ≥ 1 is always valid
	default:
		edges = RandomEdges(rng.Int63(), n, rng.Float64()*0.4)
	}
	g, err := NewGraph(in, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// checkCutSound runs one random allotment uncut and at cuts around and
// away from its makespan. A finite cut on a non-empty graph must return
// errCut exactly when the uncut makespan is ≥ cut (the sentinel is sound,
// and otherwise the exact rule fires on the task that sets the makespan),
// and a run without the sentinel must reproduce the uncut placements and
// makespan bit for bit. The compiled and legacy lookups must agree
// throughout.
func checkCutSound(tb testing.TB, rng *rand.Rand, g *Graph) {
	tb.Helper()
	in := g.in
	alloc := make([]int, in.N())
	for i, tk := range in.Tasks {
		alloc[i] = 1 + rng.Intn(tk.MaxProcs())
	}
	var want []schedule.Placement
	for _, e := range []*evalCtx{
		{g: g, sc: &Scratch{}},
		{g: g, c: instance.Compile(in), sc: &Scratch{}},
	} {
		s, mk, err := e.listSchedule(alloc, math.Inf(1))
		if err != nil {
			tb.Fatalf("uncut run failed: %v", err)
		}
		if got := s.Makespan(in); math.Float64bits(got) != math.Float64bits(mk) {
			tb.Fatalf("returned makespan %v, schedule.Makespan %v", mk, got)
		}
		if want == nil {
			want = cloneSchedule(s).Placements
		} else if !samePlacements(s.Placements, want) {
			tb.Fatal("compiled and legacy uncut placements differ")
		}
		cuts := []float64{
			math.Nextafter(mk, math.Inf(-1)), mk, math.Nextafter(mk, math.Inf(1)),
			mk - 1e-12, mk * (1 - 1e-9), mk * (1 + 1e-9), mk / 2, 2 * mk,
			mk * rng.Float64() * 2, 0, -1, math.MaxFloat64, 0x1p-1022, 0x1p-1074,
		}
		for _, cut := range cuts {
			s, got, err := e.listSchedule(alloc, cut)
			// +Inf is no cut, and with no task to start nothing can fire.
			fires := mk >= cut && !math.IsInf(cut, 1) && in.N() > 0
			if cutOff := errors.Is(err, errCut); cutOff != fires {
				tb.Fatalf("cut %v (%x) on makespan %v (%x): sentinel %v",
					cut, math.Float64bits(cut), mk, math.Float64bits(mk), cutOff)
			}
			if err != nil {
				if !errors.Is(err, errCut) {
					tb.Fatalf("cut %v: %v", cut, err)
				}
				continue
			}
			if math.Float64bits(got) != math.Float64bits(mk) {
				tb.Fatalf("cut %v: makespan %v, uncut %v", cut, got, mk)
			}
			if !samePlacements(s.Placements, want) {
				tb.Fatalf("cut %v: placements differ from the uncut run", cut)
			}
		}
	}
}

// samePlacements is reflect.DeepEqual that lets nil equal empty.
func samePlacements(a, b []schedule.Placement) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestListScheduleCutSound checks the list-scheduling cutoff over every
// graph shape and time-table mode, with random allotments.
func TestListScheduleCutSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for shape := 0; shape <= 4; shape++ {
		for mode := 0; mode < cutModes; mode++ {
			for trial := 0; trial < 40; trial++ {
				n, m := 1+rng.Intn(30), 1+rng.Intn(16)
				g := cutGraph(t, rng, n, m, shape, mode)
				for k := 0; k < 4; k++ {
					checkCutSound(t, rng, g)
				}
			}
		}
	}
}

// FuzzListScheduleCut fuzzes the same property over the same space.
func FuzzListScheduleCut(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(8), uint8(2), uint8(cutReal))
	f.Add(int64(2), uint8(30), uint8(4), uint8(4), uint8(cutTies))
	f.Add(int64(3), uint8(20), uint8(16), uint8(3), uint8(cutWide))
	f.Add(int64(4), uint8(0), uint8(1), uint8(0), uint8(cutReal))
	f.Fuzz(func(t *testing.T, seed int64, n, m, shape, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := cutGraph(t, rng, int(n%48)+1, int(m%32)+1, int(shape%5), int(mode%cutModes))
		checkCutSound(t, rng, g)
	})
}
