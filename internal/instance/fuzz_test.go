package instance

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"malsched/internal/task"
)

// FuzzParseInstance fuzzes the one JSON instance codec shared by msgen,
// msched and the msserve request path. The invariants: ReadJSON never
// panics; anything it accepts passes Check — so a codec-decoded instance
// can never trip the engine's ErrBadInstance admission gate, and a service
// request rejected there indicates an engine bug, not bad input; and
// accepted instances survive a WriteJSON/ReadJSON round trip bit-exactly.
func FuzzParseInstance(f *testing.F) {
	// A valid instance straight from the production encoder.
	var buf bytes.Buffer
	if err := Mixed(1, 4, 3).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Hand-written seeds covering the interesting rejection classes.
	for _, s := range []string{
		`{"name":"tiny","m":1,"tasks":[{"name":"a","times":[1]}]}`,
		`{"name":"wide","m":4,"tasks":[{"name":"a","times":[4,2.2,1.6,1.3]},{"name":"b","times":[0.5]}]}`,
		`{"name":"zero-m","m":0,"tasks":[{"name":"a","times":[1]}]}`,
		`{"name":"no-tasks","m":3,"tasks":[]}`,
		`{"name":"non-monotone","m":2,"tasks":[{"name":"a","times":[1,2]}]}`,
		`{"name":"superlinear","m":2,"tasks":[{"name":"a","times":[4,1]}]}`,
		`{"name":"negative","m":2,"tasks":[{"name":"a","times":[-1,1]}]}`,
		`{"name":"huge","m":2,"tasks":[{"name":"a","times":[1e308,1e308]}]}`,
		`{"m":2,"tasks":[{"times":[3,2]}]}`,
		`not json`,
		`{"name":"trunc","m":1,"tasks":[{"name":"a","times":[5,3,2]}]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just need to not panic
		}
		if err := Check(in); err != nil {
			t.Fatalf("ReadJSON accepted an instance Check rejects: %v", err)
		}
		var out bytes.Buffer
		if err := in.WriteJSON(&out); err != nil {
			t.Fatalf("re-encoding accepted instance: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Name != in.Name || back.M != in.M || back.N() != in.N() {
			t.Fatalf("round trip changed shape: %q m=%d n=%d vs %q m=%d n=%d",
				in.Name, in.M, in.N(), back.Name, back.M, back.N())
		}
		for i := range in.Tasks {
			a, b := in.Tasks[i].Times(), back.Tasks[i].Times()
			if in.Tasks[i].Name != back.Tasks[i].Name || len(a) != len(b) {
				t.Fatalf("task %d changed identity on round trip", i)
			}
			for p := range a {
				if math.Float64bits(a[p]) != math.Float64bits(b[p]) {
					t.Fatalf("task %d time %d drifted: %v -> %v", i, p, a[p], b[p])
				}
			}
		}
	})
}

// FuzzCompiledSegment fuzzes the λ-segment key the core and precedence
// caches trust: over random profiles built around validation — scaled
// linear rows, non-monotone dips and spikes, NaN/Inf/negative entries, an
// empty row — and random deadline pairs λ1 ≤ λ2, Gamma must equal
// task.Canonical at both, Segment must not decrease from λ1 to λ2, and
// equal segments must mean equal canonical allotment vectors.
func FuzzCompiledSegment(f *testing.F) {
	f.Add(6.0, uint8(8), uint8(3), 0.2, 1.5, 0.75, 1.0)
	f.Add(1.0, uint8(1), uint8(1), 1.0, 1.0, 0.0, 1.0)
	f.Add(9.0, uint8(16), uint8(5), 4.0, 0.1, 1.2, 1.2000000001)
	f.Add(3.0, uint8(7), uint8(2), math.NaN(), 2.0, 0.5, 3.0)
	f.Add(2.0, uint8(4), uint8(4), -1.0, math.Inf(1), 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, work float64, m, dip uint8, factor, scale, l1, l2 float64) {
		if math.IsNaN(l1) || math.IsNaN(l2) || l1 < 0 || l2 < 0 {
			return // the segment axis is defined on λ ≥ 0
		}
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		mp := int(m%32) + 1
		in := &Instance{Name: "fuzz", M: mp, Tasks: []task.Task{
			task.Linear("lin", work, mp),
			task.NonMonotone("nm", work, int(dip), factor, mp),
			task.NonMonotone("scaled", work, int(dip)/2+1, factor, mp).Scale(scale),
			task.PowerLaw("pow", work*scale, 0.7, mp),
			{Name: "empty"},
		}}
		c := Compile(in)
		checkGamma(t, in, c, l1)
		checkGamma(t, in, c, l2)
		s1, s2 := c.Segment(l1), c.Segment(l2)
		v1, v2 := gammaVec(c, l1), gammaVec(c, l2)
		if s1 > s2 {
			t.Fatalf("Segment decreased: %d at λ=%v, %d at λ=%v", s1, l1, s2, l2)
		}
		if s1 == s2 && !reflect.DeepEqual(v1, v2) {
			t.Fatalf("segment %d shared by λ=%v and λ=%v with allotments %v and %v", s1, l1, l2, v1, v2)
		}
	})
}
