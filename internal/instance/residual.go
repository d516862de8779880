package instance

import (
	"errors"
	"fmt"

	"malsched/internal/task"
)

// Residual-instance construction for the online scheduling layer: the
// simulator compiles a whole trace once (Compile) and then, at every
// replanning point, carves the *remaining* work of a subset of its tasks
// into a fresh instance for the planning kernel — without touching the
// original task structs again.

// Residual construction errors.
var (
	ErrNilCompiled  = errors.New("instance: residual of nil compiled instance")
	ErrBadRemaining = errors.New("instance: remaining fraction must be in (0, 1]")
	ErrBadTaskID    = errors.New("instance: residual task id out of range")
)

// Residual builds the remaining-work instance of a subset of a compiled
// workload on an m-processor (sub)machine: entry k becomes compiled task
// ids[k] with profile remaining[k]·t(p) for p = 1..min(MaxProcs, m).
//
// Scaling a monotone profile by a positive factor preserves monotony
// exactly (rounding is order-preserving), so the construction never
// re-validates per element; remaining fractions must lie in (0, 1] — a
// task with nothing left does not belong in a residual instance. The
// malleable interpretation: a task preempted after consuming fraction
// 1−r of its work still needs r·w(p) work at every allotment p, hence
// time r·t(p) — the repartition model of internal/sim's replan policy.
func Residual(c *Compiled, name string, m int, ids []int, remaining []float64) (*Instance, error) {
	if c == nil {
		return nil, ErrNilCompiled
	}
	if len(ids) != len(remaining) {
		return nil, fmt.Errorf("instance: residual %q: %d ids but %d remaining fractions", name, len(ids), len(remaining))
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: m=%d (instance %q)", ErrNoProcs, m, name)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w (instance %q)", ErrNoTasks, name)
	}
	src := c.Instance()
	tasks := make([]task.Task, len(ids))
	for k, id := range ids {
		if id < 0 || id >= c.N() {
			return nil, fmt.Errorf("%w: %d of %d (instance %q)", ErrBadTaskID, id, c.N(), name)
		}
		r := remaining[k]
		if !(r > 0) || r > 1 {
			return nil, fmt.Errorf("%w: task %d has %v (instance %q)", ErrBadRemaining, id, r, name)
		}
		mp := c.MaxProcs(id)
		if mp > m {
			mp = m
		}
		times := make([]float64, mp)
		for p := 1; p <= mp; p++ {
			times[p-1] = r * c.Time(id, p)
		}
		// Scaling preserves monotony up to rounding; a profile sitting
		// exactly on the tolerance boundary deserves an error, not a panic.
		t, err := task.New(src.Tasks[id].Name, times)
		if err != nil {
			return nil, fmt.Errorf("instance: residual %q: %w", name, err)
		}
		tasks[k] = t
	}
	return New(name, m, tasks)
}

// ResidualCompiled builds the residual instance and its compiled view:
// Compile(Residual(...)). Compilation is one copy of the time matrix, so
// re-deriving the residual's tables costs no more than mapping the
// parent's rows onto it would.
func ResidualCompiled(c *Compiled, name string, m int, ids []int, remaining []float64) (*Instance, *Compiled, error) {
	in, err := Residual(c, name, m, ids, remaining)
	if err != nil {
		return nil, nil, err
	}
	return in, Compile(in), nil
}
