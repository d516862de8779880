package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/obs"
	"malsched/internal/router"
	"malsched/internal/schedule"
	"malsched/internal/server"
	"malsched/internal/verify"
	"malsched/internal/wire"
)

var serveMixed = &workloadDef{
	name: "serve-mixed",
	why: "requests into an in-process router over 2 server shards, 80% binary, half memo hits, open and " +
		"closed loop; the only workload through wire, server, router, memo and queues",
	run:        runServe,
	traced:     tracedServe,
	traceShare: 0.35,
}

// The serve-mixed load plan. Open-loop phases send seeded Poisson
// arrivals at a low and a high rate, about 15% and 45% of the stack's
// capacity on a 2-CPU host; closed-loop phases hold a fixed number of
// clients, each sending its next request when the previous one returns.
const (
	lowRPS      = 500
	highRPS     = 1500
	sloMS       = 10.0
	lateBoundMS = 25.0 // generator lateness p99 past which the open-loop figures are invalid
	serveRounds = 2    // every phase runs once per round
	// Request counts below are per round at --seconds 25 and scale with
	// --seconds.
	recentWindow = 64 // repeats draw from the last this many distinct instances
	sampleEvery  = 16 // one distinct instance in this many is re-solved in-process
)

// concurrency is the closed-loop ladder: client counts and the requests
// each phase sends per round at --seconds 25. One client gives p50_ms and
// p99_ms, GOMAXPROCS clients the .high pair, and the SLO rate is read off
// the whole ladder.
var concurrency = []struct{ clients, requests int }{
	{1, 2500}, {2, 2500}, {4, 2500}, {8, 2500}, {16, 2500},
}

var serveFamilies = []string{"mixed", "comm-heavy", "powerlaw-0.7", "random-monotone"}

// serveReq is one request of the stream with its pre-encoded body.
type serveReq struct {
	id     int // distinct-instance index
	in     *instance.Instance
	binary bool
	body   []byte
}

// distinct is one distinct instance with its encodings, made on demand.
type distinct struct {
	id         int
	in         *instance.Instance
	bin, jsonB []byte
}

// stream is the seeded serve-mixed request sequence: each request is a
// repeat of one of the last recentWindow distinct instances with
// probability 1/2 (a memo hit), else a new instance with n ∈ [16, 48] and
// m ∈ {16, 32} from one of four families; 80% use the binary codec.
type stream struct {
	seed   int64
	rng    *rand.Rand
	next   int
	recent []*distinct
}

func newStream(seed int64) *stream {
	return &stream{seed: seed, rng: rand.New(rand.NewSource(mix(seed, 3000, 0)))}
}

func (s *stream) request() (serveReq, error) {
	var d *distinct
	if len(s.recent) > 0 && s.rng.Float64() < 0.5 {
		d = s.recent[s.rng.Intn(len(s.recent))]
	} else {
		fam := serveFamilies[s.rng.Intn(len(serveFamilies))]
		n := 16 + s.rng.Intn(33)
		m := 16 << s.rng.Intn(2)
		d = &distinct{id: s.next, in: instance.Families()[fam](mix(s.seed, 3001, s.next), n, m)}
		s.next++
		if len(s.recent) == recentWindow {
			copy(s.recent, s.recent[1:])
			s.recent = s.recent[:recentWindow-1]
		}
		s.recent = append(s.recent, d)
	}
	r := serveReq{id: d.id, in: d.in, binary: s.rng.Float64() < 0.8}
	switch {
	case r.binary && d.bin == nil:
		d.bin = wire.AppendScheduleRequest(nil, d.in, nil, nil)
	case !r.binary && d.jsonB == nil:
		raw, err := server.EncodeInstance(d.in)
		if err != nil {
			return r, fmt.Errorf("encoding %s: %w", d.in.Name, err)
		}
		if d.jsonB, err = json.Marshal(wire.ScheduleRequest{Instance: raw}); err != nil {
			return r, fmt.Errorf("encoding %s: %w", d.in.Name, err)
		}
	}
	r.body = d.bin
	if !r.binary {
		r.body = d.jsonB
	}
	return r, nil
}

func (s *stream) take(n int) ([]serveReq, error) {
	out := make([]serveReq, n)
	for i := range out {
		var err error
		if out[i], err = s.request(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// poissonGaps returns n seeded exponential inter-arrival gaps at rate
// requests per second: the open-loop send schedule, fixed before the
// phase starts.
func poissonGaps(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	return gaps
}

// stack is the in-process serving tier: a router over two server shards,
// wired through handlers as cmd/msloadgen does, so no sockets are
// involved.
type stack struct {
	servers []*server.Server
	rt      *router.Router
}

func newStack() (*stack, error) {
	st := &stack{}
	var backends []router.Backend
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{})
		st.servers = append(st.servers, s)
		backends = append(backends, router.Backend{Name: fmt.Sprintf("shard-%d", i), Handler: s.Handler()})
	}
	rt, err := router.New(router.Config{Backends: backends})
	if err != nil {
		return nil, fmt.Errorf("starting router: %w", err)
	}
	st.rt = rt
	return st, nil
}

// recorder captures a handler's response.
type recorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(s int)           { r.status = s }
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }

// send posts one request to h and returns the status and response body.
func send(h http.Handler, r *serveReq) (int, []byte) {
	hr, err := http.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(r.body))
	if err != nil {
		panic(err) // constant method and URL: cannot fail
	}
	if r.binary {
		hr.Header.Set("Content-Type", wire.ContentType)
	} else {
		hr.Header.Set("Content-Type", "application/json")
	}
	rec := &recorder{header: make(http.Header), status: http.StatusOK}
	h.ServeHTTP(rec, hr)
	return rec.status, rec.buf.Bytes()
}

// outcome is one sent request: status, response body, latency from its
// due time to the full response, and how late the generator sent it.
type outcome struct {
	status int
	body   []byte
	lat    time.Duration
	late   time.Duration
}

// openLoop sends reqs on the precomputed schedule gaps regardless of
// completions, each from its own goroutine, and waits for every response.
// Every phase starts from a freshly collected heap: collections then fall
// at the same request counts on every run, instead of wherever the
// previous phase left the collector.
func openLoop(h http.Handler, reqs []serveReq, gaps []time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	runtime.GC()
	var wg sync.WaitGroup
	due := time.Now()
	for i := range reqs {
		due = due.Add(gaps[i])
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		out[i].late = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			st, body := send(h, &reqs[i])
			out[i].status, out[i].body, out[i].lat = st, body, time.Since(due)
		}(i, due)
	}
	wg.Wait()
	return out
}

// phase summarises one open-loop phase.
type phase struct {
	rate    float64
	lat     samples // ms; a failed request counts as +Inf
	late    samples // ms
	failed  int
	backlog bool
}

func summarise(rate float64, outs []outcome) *phase {
	p := &phase{rate: rate}
	for _, o := range outs {
		l := float64(o.lat.Nanoseconds()) / 1e6
		if o.status != http.StatusOK {
			p.failed++
			l = math.Inf(1)
		}
		p.lat.add(l)
		p.late.add(float64(o.late.Nanoseconds()) / 1e6)
	}
	// The backlog grows when the last fifth of the phase waits markedly
	// longer than the first fifth.
	fifth := len(p.lat) / 5
	if fifth > 0 {
		first, last := p.lat[:fifth].median(), p.lat[len(p.lat)-fifth:].median()
		p.backlog = last > 2*first
	}
	return p
}

// checker verifies responses: every 200 is decoded, its plan verified
// (contiguous, like every mrt plan), every repeat must equal the first
// response for its instance, and a seeded sample of distinct instances is
// re-solved in-process and compared bit for bit.
type checker struct {
	rep   *report
	first map[int]uint64
}

func newChecker(rep *report) *checker {
	return &checker{rep: rep, first: make(map[int]uint64)}
}

// decodeResponse decodes a 200 body of either codec.
func decodeResponse(binary bool, body []byte) (*wire.ScheduleResponse, error) {
	if binary {
		return wire.DecodeScheduleResponse(body)
	}
	var r wire.ScheduleResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// planOf rebuilds the schedule of a response.
func planOf(p wire.PlanJSON) *schedule.Schedule {
	s := &schedule.Schedule{Algorithm: p.Algorithm, Placements: make([]schedule.Placement, len(p.Placements))}
	for i, pl := range p.Placements {
		s.Placements[i] = schedule.Placement{Task: pl.Task, Start: pl.Start, Width: pl.Width, First: pl.First, ProcSet: pl.ProcSet}
	}
	return s
}

// served is one verified response.
type served struct {
	digest      uint64
	ratio, flow float64
}

// check verifies the 200 responses of a phase and returns them in order.
func (c *checker) check(reqs []serveReq, outs []outcome, corrupt func(any)) []served {
	var res []served
	for i, o := range outs {
		if o.status != http.StatusOK {
			continue
		}
		r := &reqs[i]
		resp, err := decodeResponse(r.binary, o.body)
		if err != nil {
			c.rep.fail("%s: undecodable response: %v", r.in.Name, err)
			continue
		}
		if corrupt != nil {
			corrupt(resp)
		}
		plan := planOf(resp.Plan)
		if err := verify.Plan(r.in, verify.Certified{Plan: plan, Makespan: resp.Makespan, LowerBound: resp.LowerBound}, true); err != nil {
			c.rep.fail("%s: %v", r.in.Name, err)
			continue
		}
		dg := planDigest(resp.Makespan, resp.LowerBound, plan, resp.Probes)
		if prev, ok := c.first[r.id]; !ok {
			c.first[r.id] = dg
			if mix(0, r.id, 0)%sampleEvery == 0 {
				c.compare(r.in, resp, dg)
			}
		} else if prev != dg {
			c.rep.fail("%s: repeated request answered differently", r.in.Name)
		}
		var ends float64
		for _, pl := range plan.Placements {
			ends += pl.End(r.in)
		}
		res = append(res, served{digest: dg, ratio: resp.Makespan / resp.LowerBound, flow: ends / float64(len(plan.Placements))})
	}
	return res
}

// compare re-solves in-process and demands the identical result.
func (c *checker) compare(in *instance.Instance, got *wire.ScheduleResponse, dg uint64) {
	want, err := engine.Solve(in, engine.Options{})
	if err != nil {
		c.rep.fail("%s: in-process solve failed: %v", in.Name, err)
		return
	}
	if planDigest(want.Makespan, want.LowerBound, want.Plan, want.Probes) != dg ||
		got.Branch != want.Branch || got.Solver != want.Solver || got.Plan.Algorithm != want.Plan.Algorithm {
		c.rep.fail("%s: served result differs from the in-process solve", in.Name)
	}
}

// serveState is one built serve-mixed set-up: stack, stream and the
// first phase's pre-encoded requests.
type serveState struct {
	st  *stack
	src *stream
	low []serveReq
	chk *checker
}

// buildServe generates and pre-encodes the first phase, starts the stack
// and warms it with 256 serial requests from the stream.
func buildServe(cfg *config, rep *report, lowN int) (*serveState, error) {
	src := newStream(cfg.seed)
	warm, err := src.take(cfg.scaled(256))
	if err != nil {
		return nil, err
	}
	low, err := src.take(lowN)
	if err != nil {
		return nil, err
	}
	st, err := newStack()
	if err != nil {
		return nil, err
	}
	chk := newChecker(rep)
	outs := make([]outcome, len(warm))
	for i := range warm {
		outs[i].status, outs[i].body = send(st.rt.Handler(), &warm[i])
		if outs[i].status != http.StatusOK {
			st.rt.Close()
			return nil, fmt.Errorf("warm-up %s: HTTP %d: %s", warm[i].in.Name, outs[i].status, outs[i].body)
		}
	}
	chk.check(warm, outs, nil)
	return &serveState{st: st, src: src, low: low, chk: chk}, nil
}

// ladderPoint is one closed-loop phase: throughput and latencies.
type ladderPoint struct {
	clients int
	lat     samples // ms
	n       int
	wall    time.Duration
}

func (p *ladderPoint) rate() float64 { return float64(p.n) / p.wall.Seconds() }

func runServe(cfg *config, rep *report) error {
	scale := cfg.seconds / 25
	count := func(n int) int { return max(1, int(float64(n)*scale)) }
	var built []*serveState
	s, setup, err := timedSetup(func() (*serveState, error) {
		s, err := buildServe(cfg, rep, count(lowRPS*2))
		if err == nil {
			built = append(built, s)
		}
		return s, err
	})
	for _, b := range built {
		if b != s {
			b.st.rt.Close()
		}
	}
	if err != nil {
		return err
	}
	defer s.st.rt.Close()
	rep.metrics["setup_s"] = setup
	h := s.st.rt.Handler()

	// Each round: the open-loop phases, then up the closed-loop ladder.
	// attempted and failed count the closed-loop requests, which the
	// end-to-end metrics come from; every response of every phase is
	// checked.
	var ok []served
	open := []*phase{{rate: lowRPS}, {rate: highRPS}}
	openN := []int{count(2 * lowRPS), count(highRPS)} // 2 s at the low rate, 1 s at the high
	var late samples
	points := make([]ladderPoint, len(concurrency))
	var alloc uint64
	attempted, failed := 0, 0
	for r := 0; r < serveRounds; r++ {
		for i, op := range open {
			reqs := s.low
			if r > 0 || i > 0 {
				if reqs, err = s.src.take(openN[i]); err != nil {
					return err
				}
			}
			s.low = nil
			outs := openLoop(h, reqs, poissonGaps(mix(cfg.seed, 4000+i, r), op.rate, len(reqs)))
			p := summarise(op.rate, outs)
			ok = append(ok, s.chk.check(reqs, outs, cfg.corrupt)...)
			late = append(late, p.late...)
			op.lat = append(op.lat, p.lat...)
			op.failed += p.failed
			op.backlog = op.backlog || p.backlog
		}
		for i, c := range concurrency {
			pool, err := s.src.take(count(c.requests))
			if err != nil {
				return err
			}
			runtime.GC()
			a := totalAlloc()
			outs, wall := closedLoop(h, pool, c.clients, time.Hour)
			if c.clients == 1 {
				alloc += totalAlloc() - a
			}
			ok = append(ok, s.chk.check(pool, outs, cfg.corrupt)...)
			pt := &points[i]
			pt.clients = c.clients
			pt.n += len(outs)
			pt.wall += wall
			for _, o := range outs {
				if o.status != http.StatusOK {
					failed++
					pt.lat.add(math.Inf(1))
					continue
				}
				pt.lat.add(float64(o.lat.Nanoseconds()) / 1e6)
			}
			attempted += len(outs)
		}
	}
	// What the stack retains — memo, compiled and warm caches — after a
	// request count fixed by the seed and --seconds.
	liveMB := liveHeapMB()

	rep.attempted, rep.failed = attempted, failed
	if failed > 0 {
		rep.fail("%d of %d requests failed", failed, attempted)
	}
	// The open-loop phases feed no end-to-end metric: a generator that
	// ran late past its bound invalidates their figures, not the run.
	lateP99 := late.pct(99)
	rep.prov["open_loop_valid"] = lateP99.Value <= lateBoundMS
	var ratios, flows []float64
	var digests []uint64
	for _, r := range ok {
		ratios = append(ratios, r.ratio)
		flows = append(flows, r.flow)
		digests = append(digests, r.digest)
	}
	serial, sat := &points[0], &points[1]
	for i := range points {
		if points[i].clients == runtime.GOMAXPROCS(0) {
			sat = &points[i]
		}
	}
	rep.setPct("p50_ms", serial.lat, 50)
	rep.setPct("p99_ms", serial.lat, 99)
	rep.setPct("p50_ms.high", sat.lat, 50)
	rep.setPct("p99_ms.high", sat.lat, 99)
	rep.metrics["ops_per_s"] = serial.rate()
	rep.metrics["max_rps_slo"] = sloRate(points)
	rep.metrics["ratio_mean"] = mean(ratios)
	rep.metrics["flow_mean"] = mean(flows)
	rep.metrics["alloc_kb_per_op"] = float64(alloc) / float64(serial.n) / 1024
	rep.metrics["live_heap_mb"] = liveMB
	rep.metrics["success_share"] = 1 - float64(failed)/float64(attempted)

	ladderOut := make(map[string]any)
	for _, p := range points {
		ladderOut[strconv.Itoa(p.clients)] = map[string]float64{"rps": p.rate(), "p50_ms": p.lat.pct(50).Value, "p99_ms": p.lat.pct(99).Value}
	}
	openOut := make(map[string]any)
	for _, p := range open {
		openOut[strconv.FormatFloat(p.rate, 'f', -1, 64)] = map[string]any{"p50_ms": p.lat.pct(50), "p99_ms": p.lat.pct(99), "failed": p.failed, "backlog_grew": p.backlog}
	}
	rep.prov["closed_loop"] = ladderOut
	rep.prov["open_loop"] = openOut
	rep.prov["harness_late_ms_p99"] = lateP99
	rep.prov["digest"] = fmt.Sprintf("%016x", combine(digests))
	return nil
}

// sloRate is the highest throughput the closed-loop ladder sustains with
// p99 latency within sloMS, interpolated between the last level that
// meets the SLO and the first that misses it (a failed request counts as
// an infinite latency). A closed loop cannot build a backlog: the client
// count bounds what is in flight.
func sloRate(points []ladderPoint) float64 {
	prevRate, prevP99 := 0.0, 0.0
	for _, p := range points {
		rate, p99 := p.rate(), p.lat.pct(99).Value
		if p99 > sloMS {
			if math.IsInf(p99, 1) {
				return prevRate
			}
			return prevRate + (rate-prevRate)*(sloMS-prevP99)/(p99-prevP99)
		}
		prevRate, prevP99 = rate, p99
	}
	return prevRate
}

// closedLoop runs clients that each send their next request only after
// the previous one completes, until d has passed or the pool is used up.
// Every phase starts from a freshly collected heap.
func closedLoop(h http.Handler, pool []serveReq, clients int, d time.Duration) ([]outcome, time.Duration) {
	outs := make([]outcome, len(pool))
	runtime.GC()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(pool) {
					return
				}
				t0 := time.Now()
				outs[i].status, outs[i].body = send(h, &pool[i])
				outs[i].lat = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	n := int(next.Load())
	if n > len(pool) {
		n = len(pool)
	}
	// Claimed indices past the deadline were never sent.
	done := 0
	for done < n && outs[done].lat > 0 {
		done++
	}
	return outs[:done], wall
}

// bucketCounts parses the stage="<stage>" series of a stage-latency
// histogram family out of a Prometheus text rendering and returns the
// per-bucket counts (keyed by bucket upper bound in µs), all series
// merged.
func bucketCounts(text, family, stage string) map[int64]int64 {
	out := make(map[int64]int64)
	prev := make(map[string]int64) // per series: the cumulative count so far
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"_bucket{") || !strings.Contains(line, `stage="`+stage+`"`) {
			continue
		}
		i := strings.Index(line, `,le="`)
		j := strings.LastIndex(line, `"}`)
		if i < 0 || j < i {
			continue
		}
		series, le := line[:i], line[i+5:j]
		if le == "+Inf" {
			continue
		}
		ub, err1 := strconv.ParseInt(le, 10, 64)
		cum, err2 := strconv.ParseInt(strings.TrimSpace(line[j+2:]), 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		out[ub] += cum - prev[series]
		prev[series] = cum
	}
	return out
}

// histQuantile returns the q-quantile (bucket upper bound, µs) and the
// sample count of the observations a histogram gained between two
// renderings of each registry.
func histQuantile(before, after []string, family, stage string, q float64) (float64, int64) {
	delta := make(map[int64]int64)
	for i := range after {
		for ub, c := range bucketCounts(after[i], family, stage) {
			delta[ub] += c
		}
		for ub, c := range bucketCounts(before[i], family, stage) {
			delta[ub] -= c
		}
	}
	ubs := make([]int64, 0, len(delta))
	var total int64
	for ub, c := range delta {
		total += c
		ubs = append(ubs, ub)
	}
	if total == 0 {
		return 0, 0
	}
	sort.Slice(ubs, func(a, b int) bool { return ubs[a] < ubs[b] })
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for _, ub := range ubs {
		cum += delta[ub]
		if cum >= rank {
			return float64(ub), total
		}
	}
	return float64(ubs[len(ubs)-1]), total
}

// metricsText renders a registry.
func metricsText(r *obs.Registry) string {
	var b strings.Builder
	_ = r.WriteText(&b) // a strings.Builder never fails
	return b.String()
}

// stackStats sums the counters the per-layer metrics are read from.
type stackStats struct {
	memoHits, memoMisses, compileHits, compileMisses uint64
	accepted, rejected                               uint64
	routed, local, steals                            uint64
}

func (st *stack) stats() stackStats {
	var s stackStats
	for _, srv := range st.servers {
		ss := srv.Stats()
		s.accepted += ss.Queue.Accepted
		s.rejected += ss.Queue.Rejected
		for _, sh := range ss.Shards {
			s.memoHits += sh.MemoHits
			s.memoMisses += sh.MemoMisses
			s.compileHits += sh.CompileHits
			s.compileMisses += sh.CompileMisses
		}
	}
	rs := st.rt.Stats()
	s.routed, s.local, s.steals = rs.Routed, rs.LocalServed, rs.Steals
	return s
}

func share(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// servePipeline is the traced serve-mixed op: the request path decomposed
// into the layers' public calls — route key, decode, compile, memoised
// solve, verify, encode — on a private engine.
func servePipeline(tr *tracer, eng *engine.Engine, r *serveReq, op int32) (uint64, error) {
	root := int32(-1)
	span := func(name string, f func() error) error {
		s := tr.begin(name, root, op)
		err := f()
		tr.end(s)
		return err
	}
	if tr != nil {
		root = tr.begin("op.serve-mixed", -1, op)
		defer tr.end(root)
	} else {
		span = func(_ string, f func() error) error { return f() }
	}
	var in *instance.Instance
	var err error
	if r.binary {
		if err = span("wire.RouteKey", func() error { _, _, err := wire.RouteKey(r.body); return err }); err != nil {
			return 0, err
		}
		err = span("wire.DecodeScheduleRequest", func() error {
			var err error
			in, _, _, err = wire.DecodeScheduleRequest(r.body)
			return err
		})
	} else {
		var req wire.ScheduleRequest
		if err = span("server.json_envelope", func() error { return json.Unmarshal(r.body, &req) }); err != nil {
			return 0, err
		}
		err = span("server.DecodeInstance", func() error {
			var err error
			in, err = server.DecodeInstance(req.Instance)
			return err
		})
	}
	if err != nil {
		return 0, err
	}
	var o engine.Options
	var out engine.Outcome
	_ = span("engine.solve", func() error {
		ci := eng.CompiledFor(in)
		out = eng.ScheduleCompiled(in, ci, o, 0, engine.Fingerprint(in, o))
		return nil
	})
	if out.Err != nil {
		return 0, out.Err
	}
	if err := span("verify.Plan", func() error {
		return verify.Plan(in, verify.Certified{Plan: out.Plan, Makespan: out.Makespan, LowerBound: out.LowerBound}, false)
	}); err != nil {
		return 0, err
	}
	resp := server.ResponseOf(in, out, 0)
	if r.binary {
		err = span("wire.AppendScheduleResponse", func() error { wire.AppendScheduleResponse(nil, resp); return nil })
	} else {
		err = span("server.json_encode", func() error { _, err := json.Marshal(resp); return err })
	}
	return planDigest(out.Makespan, out.LowerBound, out.Plan, out.Probes), err
}

func tracedServe(cfg *config, rep *report, tr *tracer, d time.Duration) error {
	s, err := buildServe(cfg, rep, cfg.scaled(800))
	if err != nil {
		return err
	}
	defer s.st.rt.Close()
	h := s.st.rt.Handler()

	// Untraced reference: the requests one at a time through the router.
	K := len(s.low)
	untraced := make([]float64, K)
	outs := make([]outcome, K)
	for i := range s.low {
		t0 := time.Now()
		outs[i].status, outs[i].body = send(h, &s.low[i])
		untraced[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if outs[i].status != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d", s.low[i].in.Name, outs[i].status)
		}
	}
	var want []uint64
	for _, r := range s.chk.check(s.low, outs, nil) {
		want = append(want, r.digest)
	}

	// Traced: the same requests through the decomposed pipeline, on an
	// engine that first sees the warm-up requests like the stack did.
	eng := engine.New(engine.Config{})
	replay := newStream(cfg.seed)
	warm, err := replay.take(cfg.scaled(256))
	if err != nil {
		return err
	}
	for i := range warm {
		if _, err := servePipeline(nil, eng, &warm[i], 0); err != nil {
			return err
		}
	}
	mark := len(tr.spans)
	got := make([]uint64, 0, K)
	for i := range s.low {
		dg, err := servePipeline(tr, eng, &s.low[i], int32(i))
		if err != nil {
			return fmt.Errorf("traced %s: %w", s.low[i].in.Name, err)
		}
		got = append(got, dg)
	}
	traced := tr.durations(mark, "op.serve-mixed")
	if combine(got) != combine(want) {
		rep.fail("serve-mixed: traced digest %016x differs from the served %016x", combine(got), combine(want))
	}

	// Load at the high rate, for the queues and the serving counters.
	loadN := max(1100, int(highRPS*d.Seconds()*0.25))
	load, err := s.src.take(loadN)
	if err != nil {
		return err
	}
	srvText := func() []string {
		var out []string
		for _, srv := range s.st.servers {
			out = append(out, metricsText(srv.Metrics()))
		}
		return out
	}
	srvBefore, rtBefore := srvText(), []string{metricsText(s.st.rt.Metrics())}
	st0 := s.st.stats()
	loadOuts := openLoop(h, load, poissonGaps(mix(cfg.seed, 4200, 0), highRPS, len(load)))
	st1 := s.st.stats()
	p := summarise(highRPS, loadOuts)
	s.chk.check(load, loadOuts, nil)
	srvQueue, srvN := histQuantile(srvBefore, srvText(), "malsched_stage_latency_us", "queue", 0.99)
	rtQueue, rtN := histQuantile(rtBefore, []string{metricsText(s.st.rt.Metrics())}, "msroute_stage_latency_us", "queue", 0.99)

	// Router overhead: the same memo-hit bodies through the router and
	// straight into a shard, alternating.
	var viaRouter, direct samples
	shard := s.st.servers[0].Handler()
	sample := load[:min(len(load), 200)]
	for i := range sample {
		send(shard, &sample[i]) // make it a memo hit on the direct path too
	}
	for i := range sample {
		t0 := time.Now()
		send(h, &sample[i])
		viaRouter.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		t0 = time.Now()
		send(shard, &sample[i])
		direct.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}

	us := func(name string) float64 {
		v := tr.durations(mark, name)
		for i := range v {
			v[i] *= 1000
		}
		return v.pct(50).Value
	}
	rep.metrics["wire.decode_us.p50"] = us("wire.DecodeScheduleRequest")
	rep.metrics["wire.routekey_us.p50"] = us("wire.RouteKey")
	rep.metrics["wire.encode_us.p50"] = us("wire.AppendScheduleResponse")
	rep.metrics["server.json_decode_us.p50"] = us("server.DecodeInstance")
	rep.metrics["server.json_encode_us.p50"] = us("server.json_encode")
	rep.metrics["verify.plan_us.p50"] = us("verify.Plan")
	rep.metrics["server.queue_us.p99"] = srvQueue
	rep.metrics["router.queue_us.p99"] = rtQueue
	rep.metrics["router.overhead_us.p50"] = viaRouter.median() - direct.median()
	rep.metrics["engine.memo_hit_share"] = share(st1.memoHits-st0.memoHits, st1.memoMisses-st0.memoMisses)
	rep.metrics["engine.compile_hit_share"] = share(st1.compileHits-st0.compileHits, st1.compileMisses-st0.compileMisses)
	rep.metrics["router.locality_share"] = share(st1.local-st0.local, st1.steals-st0.steals)
	rep.metrics["router.steals_per_kreq"] = float64(st1.steals-st0.steals) / float64(st1.routed-st0.routed) * 1000
	rep.metrics["server.rejected_share"] = share(st1.rejected-st0.rejected, st1.accepted-st0.accepted)
	rep.metrics["harness.late_ms.p99"] = p.late.pct(99).Value
	rep.metrics["trace.coverage.serve-mixed"] = tr.coverage(mark, "op.serve-mixed")
	rep.metrics["trace.overhead.serve-mixed"] = pairedOverhead(traced, untraced)
	rep.attempted += K + len(load)
	rep.failed += p.failed
	rep.prov["serve-mixed"] = map[string]any{
		"requests":           K,
		"load_requests":      len(load),
		"server_queue_count": srvN,
		"router_queue_count": rtN,
		"load_failed":        p.failed,
		"load_valid":         p.late.pct(99).Value <= lateBoundMS,
		"digest":             fmt.Sprintf("%016x", combine(want)),
	}
	return nil
}
