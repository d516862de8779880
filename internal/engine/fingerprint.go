package engine

import (
	"math"

	"malsched/internal/instance"
)

// memoKey identifies a (workload, options) pair in the memo. The hash is a
// 64-bit FNV-1a over the semantically relevant input — machine size, every
// task's full time table, and the scheduling options — deliberately
// excluding the instance and task names: plans reference tasks by index
// only, so renamed copies of the same workload are memo hits. The m/n
// fields ride along as cheap collision guards; a residual 64-bit collision
// between same-shape workloads is possible in principle and accepted (the
// memo is a per-process cache, not a correctness oracle — disable it with a
// negative capacity for adversarial inputs).
type memoKey struct {
	hash uint64
	m, n int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) byte(b byte) {
	*h = (*h ^ fnv64(b)) * fnvPrime
}

func (h *fnv64) uint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv64) float64(f float64) {
	h.uint64(math.Float64bits(f))
}

func (h *fnv64) string(s string) {
	h.uint64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// Fingerprint returns the 64-bit name-independent workload hash the memo
// keys on: machine size, every task's full time table, and the scheduling
// options in resolved form. Renamed copies of the same workload under the
// same options collide on purpose. The scheduling service shards engines by
// this value so repeated workloads always land on the shard whose memo
// already holds them.
func Fingerprint(in *instance.Instance, o Options) uint64 {
	return fingerprint(in, o).hash
}

// WorkloadFingerprint returns the workload-only hash — machine size and
// every task's full time table, no options. It is the routing key of the
// multi-shard tier (internal/router): consistent-hash routing by this
// value keeps repeated workloads on the shard whose memo, compiled-table
// and warm caches already hold them, and it is options-independent so the
// same workload under different solver options still shares locality.
func WorkloadFingerprint(in *instance.Instance) uint64 {
	return uint64(instanceHash(in))
}

// WorkloadFingerprintDAG is WorkloadFingerprint with the precedence DAG
// folded in: nil edges leave the hash exactly equal to the independent
// fingerprint, while non-nil edges — even the empty DAG — fold a marker
// plus the full successor lists, the same stream the memo fingerprint
// hashes. The routing tier uses it so a DAG request never lands on (and
// never shares warm state with) the shard of its independent projection;
// the binary codec's RouteKey folds the identical stream, keeping JSON and
// binary routing decisions aligned.
func WorkloadFingerprintDAG(in *instance.Instance, edges [][]int) uint64 {
	h := instanceHash(in)
	hashEdges(&h, edges)
	return uint64(h)
}

// hashEdges folds a successor-list DAG into a fingerprint: nothing for nil
// (pre-DAG hashes stay stable), a marker plus the full lists otherwise.
// Shared by the memo fingerprint, WorkloadFingerprintDAG and — stream-for-
// stream — wire.RouteKey's binary fold.
func hashEdges(h *fnv64, edges [][]int) {
	if edges == nil {
		return
	}
	h.string("edges")
	h.uint64(uint64(len(edges)))
	for _, ss := range edges {
		h.uint64(uint64(len(ss)))
		for _, j := range ss {
			h.uint64(uint64(j))
		}
	}
}

// instanceHash is the workload-only prefix of the fingerprint: machine
// size and every task's full time table, no options. The compiled-instance
// cache keys on it alone, because compiled tables depend only on
// the workload — memo-miss re-solves of the same shape under different
// options still skip recompilation.
func instanceHash(in *instance.Instance) fnv64 {
	h := fnv64(fnvOffset)
	h.uint64(uint64(in.M))
	h.uint64(uint64(in.N()))
	for _, t := range in.Tasks {
		h.uint64(uint64(t.MaxProcs()))
		for p := 1; p <= t.MaxProcs(); p++ {
			h.float64(t.Time(p))
		}
	}
	return h
}

// instanceKey is the compiled-cache key of a workload. Like the memo key it
// accepts the residual 64-bit collision risk (the compiled cache is a
// per-process cache, disabled along with the memo by a negative capacity).
func instanceKey(in *instance.Instance) memoKey {
	return memoKey{hash: uint64(instanceHash(in)), m: in.M, n: in.N()}
}

// fingerprint computes the memo key of an instance under the given options.
func fingerprint(in *instance.Instance, o Options) memoKey {
	h := instanceHash(in)
	h.float64(o.Eps)
	if o.Compact {
		h.byte(1)
	} else {
		h.byte(0)
	}
	// The solver identity is hashed in resolved form, so the deprecated
	// Baseline alias and an explicit Solver of the same name share memo
	// entries. Parallelism, Legacy and Trace are deliberately excluded:
	// the speculative search is bit-identical to the sequential one, the
	// compiled hot path to the legacy one, and tracing is pure observation
	// (enforced by the golden, determinism, equivalence and trace tests),
	// so their results are interchangeable.
	if len(o.Portfolio) > 0 {
		h.string("portfolio")
		h.uint64(uint64(len(o.Portfolio)))
		for _, m := range o.Portfolio {
			h.string(m)
		}
	} else {
		h.string(o.solverName())
	}
	// The edge structure is part of the key: a DAG must never alias its
	// independent-task projection (or a differently-wired DAG over the same
	// profiles) in the memo or the shard routing. nil edges hash to nothing,
	// keeping every pre-DAG fingerprint stable; non-nil edges — even the
	// empty DAG — append a marker plus the full successor lists.
	hashEdges(&h, o.Edges)
	return memoKey{hash: uint64(h), m: in.M, n: in.N()}
}
