// Command perfbench is the repository benchmark: it runs the four
// end-to-end paths of the scheduler — cold facade solves, DAG solves,
// simulator replans and the in-process serving stack — on inputs it
// generates from a seed, verifies every output, and prints every metric
// of BENCHMARK.json by name with its unit. A traced run (-trace 1) times
// each layer by calling that layer's public functions from this package.
//
//	perfbench --workload cold-mrt --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object
// {"correct","attempted","failed","metrics"}; the line before it holds the
// run's provenance (commit, Go version, CPUs, seed, op counts, percentile
// sample counts, result digests). Any failed check exits non-zero. See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart approximates process start: package variables initialise
// before main runs.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	commit   string
	source   string
	// scale shrinks the generated op sets (1 = the benchmark's sizes);
	// the package tests run with smaller inputs.
	scale float64
	// corrupt, when non-nil, tampers with every result before the run's
	// checks see it; the tripwire test uses it to prove a bad plan fails
	// the run.
	corrupt func(any)
}

// budget is a share of the run's measurement time.
func (c *config) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// scaled returns max(1, round(n·scale)).
func (c *config) scaled(n int) int {
	if c.scale <= 0 {
		return n
	}
	k := int(float64(n)*c.scale + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// report is what a run measured and checked.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	prov              map[string]any
	pcts              map[string]pct
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), prov: make(map[string]any), pcts: make(map[string]pct)}
}

// fail records a failed check; the run then reports correct=false and
// exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setPct records a percentile metric and its sample counts; a tail
// percentile with fewer than minBeyond samples beyond it fails the run.
func (r *report) setPct(name string, s samples, p float64) {
	v := s.pct(p)
	r.metrics[name] = v.Value
	r.pcts[name] = v
	if p > 50 && v.Beyond < minBeyond {
		r.fail("%s: only %d of %d samples beyond the p%g", name, v.Beyond, v.N, p)
	}
}

// workloadDef is one end-to-end path.
type workloadDef struct {
	name string
	why  string
	// run measures the untraced end-to-end metrics.
	run func(cfg *config, rep *report) error
	// traced measures the workload's per-layer metrics within d.
	traced func(cfg *config, rep *report, tr *tracer, d time.Duration) error
	// traceShare is the workload's share of a traced run.
	traceShare float64
}

var workloads = []*workloadDef{coldMRT, dagSolve, replanOnline, serveMixed}

func lookup(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{scale: 1}
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: cold-mrt, dag-solve, replan-online or serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed generates the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measurement time of the run")
	fs.IntVar(&traceFlag, "trace", 0, "1 makes a traced run that prints the per-layer metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory the traced run writes its spans to (empty: keep them in memory only)")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the program under test, for provenance")
	fs.StringVar(&cfg.source, "source-hash", "unknown", "hash of the program's sources, for provenance")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	w := lookup(cfg.workload)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	case !(cfg.seconds > 0):
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	case runtime.GOMAXPROCS(0) > runtime.NumCPU():
		fmt.Fprintf(stderr, "perfbench: refusing to run with GOMAXPROCS=%d > %d CPUs\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}

	rep, err := measure(cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printReport(stdout, cfg, w, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(rep.problems) > 0 {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

// measure runs the untraced workload, or the traced run over every
// workload.
func measure(cfg *config, w *workloadDef) (*report, error) {
	rep := newReport()
	if !cfg.trace {
		if err := w.run(cfg, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return rep, nil
	}
	tr := newTracer()
	for _, tw := range workloads {
		if err := tw.traced(cfg, rep, tr, cfg.budget(tw.traceShare)); err != nil {
			return nil, fmt.Errorf("%s (traced): %w", tw.name, err)
		}
		runtime.GC()
	}
	rep.prov["spans"] = len(tr.spans)
	if cfg.spansDir != "" {
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.prov["spans_file"] = path
	}
	return rep, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// printReport writes the provenance line and then the result line.
func printReport(w io.Writer, cfg *config, wl *workloadDef, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultOut{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return errors.New("no op attempted")
	}

	prov := map[string]any{
		"commit":       cfg.commit,
		"source_hash":  cfg.source,
		"go_version":   runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"workload":     wl.name,
		"why":          wl.why,
		"seed":         cfg.seed,
		"holdout_seed": holdoutSeed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"percentiles":  rep.pcts,
		"problems":     rep.problems,
	}
	for k, v := range rep.prov {
		prov[k] = v
	}
	if cfg.trace {
		targets := make(map[string]string, len(perLayer))
		for _, d := range perLayer {
			targets[d.Name] = d.Target
		}
		prov["targets"] = targets
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return fmt.Errorf("encoding provenance: %w", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, out)
	return err
}
