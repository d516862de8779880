package main

// metricDef is one metric of BENCHMARK.json. Target names, for a
// per-layer metric, the end-to-end metrics and workload it should move;
// it is printed with every traced run and documented in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
	Target string  // per-layer metrics only
}

// endToEnd lists the metrics an untraced run prints, in output order.
// Every workload prints every one of them; README.md gives the
// per-workload definitions.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p50_ms.high", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms.high", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "max_rps_slo", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ratio_mean", Unit: "ratio", Better: "lower", Bound: 0.03},
	{Name: "flow_mean", Unit: "vt", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.1},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "success_share", Unit: "share", Better: "higher", Bound: 0.01},
}

// perLayer lists the metrics a traced run prints. A traced run covers
// all four workloads, since each layer metric lives on the workload that
// exercises its layer.
var perLayer = []metricDef{
	{Name: "instance.compile_ms.p50", Unit: "ms", Better: "lower", Target: "cold-mrt p50_ms, ops_per_s; dag-solve p50_ms (small share)"},
	{Name: "instance.compile_kb", Unit: "KiB", Better: "lower", Target: "cold-mrt alloc_kb_per_op"},
	{Name: "core.search_ms.p50", Unit: "ms", Better: "lower", Target: "cold-mrt p50_ms"},
	{Name: "core.probes_per_op", Unit: "count", Better: "lower", Target: "cold-mrt p50_ms"},
	{Name: "core.probe_us.p50", Unit: "us", Better: "lower", Target: "cold-mrt p50_ms"},
	{Name: "core.probe_us.p99", Unit: "us", Better: "lower", Target: "cold-mrt p50_ms, p99_ms"},
	{Name: "core.accept_share", Unit: "share", Better: "higher", Target: "cold-mrt p50_ms"},
	{Name: "precedence.graph_us.p50", Unit: "us", Better: "lower", Target: "dag-solve p50_ms"},
	{Name: "precedence.search_ms.p50", Unit: "ms", Better: "lower", Target: "dag-solve p50_ms, p99_ms"},
	{Name: "precedence.list_ms.p50", Unit: "ms", Better: "lower", Target: "dag-solve p50_ms, p99_ms"},
	{Name: "precedence.refine_ms.p50", Unit: "ms", Better: "lower", Target: "dag-solve p50_ms, p99_ms"},
	{Name: "precedence.refine_share", Unit: "share", Better: "lower", Target: "dag-solve p50_ms, p99_ms"},
	{Name: "verify.plan_us.p50", Unit: "us", Better: "lower", Target: "serve-mixed p50_ms, alloc_kb_per_op"},
	{Name: "verify.precedence_us.p50", Unit: "us", Better: "lower", Target: "dag-solve p50_ms (small share)"},
	{Name: "verify.timeline_ms.p50", Unit: "ms", Better: "lower", Target: "none: checker only, outside every timed op"},
	{Name: "engine.memo_hit_share", Unit: "share", Better: "higher", Target: "serve-mixed p50_ms"},
	{Name: "engine.compile_hit_share", Unit: "share", Better: "higher", Target: "serve-mixed p50_ms"},
	{Name: "sim.plans_per_run", Unit: "count", Better: "lower", Target: "replan-online ops_per_s"},
	{Name: "sim.probes_per_plan", Unit: "count", Better: "lower", Target: "replan-online p50_ms, ops_per_s"},
	{Name: "sim.synth_share", Unit: "share", Better: "higher", Target: "replan-online p50_ms, ops_per_s"},
	{Name: "sim.exec_share", Unit: "share", Better: "lower", Target: "replan-online ops_per_s"},
	{Name: "wire.decode_us.p50", Unit: "us", Better: "lower", Target: "serve-mixed p50_ms"},
	{Name: "wire.routekey_us.p50", Unit: "us", Better: "lower", Target: "serve-mixed p50_ms"},
	{Name: "wire.encode_us.p50", Unit: "us", Better: "lower", Target: "serve-mixed p50_ms"},
	{Name: "server.json_decode_us.p50", Unit: "us", Better: "lower", Target: "serve-mixed p50_ms, p99_ms"},
	{Name: "server.json_encode_us.p50", Unit: "us", Better: "lower", Target: "serve-mixed p50_ms"},
	{Name: "server.queue_us.p99", Unit: "us", Better: "lower", Target: "serve-mixed p99_ms.high, max_rps_slo"},
	{Name: "router.queue_us.p99", Unit: "us", Better: "lower", Target: "serve-mixed p99_ms.high, max_rps_slo"},
	{Name: "router.overhead_us.p50", Unit: "us", Better: "lower", Target: "serve-mixed p50_ms"},
	{Name: "router.locality_share", Unit: "share", Better: "higher", Target: "serve-mixed p99_ms.high, max_rps_slo"},
	{Name: "router.steals_per_kreq", Unit: "count", Better: "lower", Target: "serve-mixed p99_ms.high"},
	{Name: "server.rejected_share", Unit: "share", Better: "lower", Target: "serve-mixed success_share, max_rps_slo"},
	{Name: "harness.late_ms.p99", Unit: "ms", Better: "lower", Target: "none: generator health; open-loop figures are marked invalid past 25 ms"},
	{Name: "trace.coverage.cold-mrt", Unit: "share", Better: "higher", Target: "trace quality"},
	{Name: "trace.coverage.dag-solve", Unit: "share", Better: "higher", Target: "trace quality"},
	{Name: "trace.coverage.replan-online", Unit: "share", Better: "higher", Target: "trace quality"},
	{Name: "trace.coverage.serve-mixed", Unit: "share", Better: "higher", Target: "trace quality"},
	{Name: "trace.overhead.cold-mrt", Unit: "share", Better: "lower", Target: "trace quality"},
	{Name: "trace.overhead.dag-solve", Unit: "share", Better: "lower", Target: "trace quality"},
	{Name: "trace.overhead.replan-online", Unit: "share", Better: "lower", Target: "trace quality"},
	{Name: "trace.overhead.serve-mixed", Unit: "share", Better: "lower", Target: "trace quality"},
}

// holdoutSeed is kept out of every tuning run; a later performance claim
// must also hold on it (see README.md).
const holdoutSeed = 8675309
