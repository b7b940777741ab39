// Command ledger is qswitch's end-to-end benchmark. It runs one workload
// in process for a fixed number of seconds, checks every output, and
// prints the end-to-end metrics (untraced) or the per-layer metrics
// (traced) as the last line of standard output, one JSON object:
//
//	bash ledger/run.sh --workload mc-ratio --seed 3 --seconds 30 --trace 0
//
// The workloads, metrics and output checks are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"qswitch/internal/obs"
	"qswitch/internal/obs/wire"
)

// setupReps is how many times a run sets up before timing, when the
// workload sets up once per run; setup_s is their median.
const setupReps = 3

func main() {
	if os.Getenv(workerEnv) != "" {
		os.Exit(serveWorker())
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 30, "seconds to measure for")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run, 0: end-to-end metrics")
		record  = flag.String("record-refs", "", "print paper-suite reference digests for mode full or quick and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := recordRefs(os.Stdout, *record == "quick"); err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runBenchmark(config{
		workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, spanDir: ".bench_build",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	js, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
	if !res.summary.Correct {
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	// spanDir receives the traced run's spans; "" skips writing them.
	spanDir string
	// tiny shrinks every workload to a size the package tests can run.
	tiny bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is a finished run: the summary and the human-readable report
// printed before it.
type result struct {
	summary summary
	report  []string
}

// tally counts operations and the ones that failed (errored or failed
// their output check).
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

// fail records n failed operations with a reason.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// iteration is one timed execution of a workload's operations.
type iteration struct {
	wall, cpu time.Duration
	work      float64
	rss       int64 // peak resident set of the benchmark process, bytes
}

// runner holds one run's workload and what its phases accumulate.
type runner struct {
	w      workload
	sp     spec
	rss    *rssSampler
	setups []time.Duration
	ops    tally
}

func runBenchmark(cfg config) (result, error) {
	sp, ok := workloadByName(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	rss, err := startRSSSampler()
	if err != nil {
		return result{}, err
	}
	defer rss.close()
	r := &runner{w: sp.make(cfg.seed, cfg.tiny), sp: sp, rss: rss}
	if !sp.setupEachRun {
		for i := 0; i < setupReps; i++ {
			if err := r.setup(false); err != nil {
				return result{}, err
			}
		}
	}

	budget := cfg.budget
	if cfg.traced {
		budget /= 2
	}
	plain, err := r.measure(budget)
	if err != nil {
		return result{}, err
	}
	res := result{report: []string{
		fmt.Sprintf("workload %s seed %d (%s), GOMAXPROCS %d, NumCPU %d",
			sp.name, cfg.seed, r.w.describe(), runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}}
	walls := column(plain, func(it iteration) float64 { return it.wall.Seconds() })
	wallMed := median(walls)
	metrics := map[string]metric{}
	if !cfg.traced {
		cpuMed := median(column(plain, func(it iteration) float64 { return it.cpu.Seconds() }))
		thrMed := median(column(plain, func(it iteration) float64 { return it.work / it.wall.Seconds() }))
		rss := column(plain, func(it iteration) float64 { return float64(it.rss) / (1 << 20) })
		selfMB := median(rss)
		childMB := float64(childPeakRSS()) / 1024
		metrics["wall_s"] = metric{wallMed, "s"}
		metrics["cpu_s"] = metric{cpuMed, "s"}
		metrics["setup_s"] = metric{median(secs(r.setups)), "s"}
		metrics["peak_rss_mb"] = metric{selfMB + childMB, "MB"}
		metrics["throughput"] = metric{thrMed, "1/s"}
		res.report = append(res.report,
			fmt.Sprintf("iterations %d, setups %d; wall_s p50 %.4f (min %.4f max %.4f), cpu_s p50 %.4f",
				len(plain), len(r.setups), wallMed, minf(walls), maxf(walls), cpuMed),
			fmt.Sprintf("throughput %.6g %s/s; peak RSS %.1f MB (benchmark process p50 %.1f MB, max %.1f MB; largest worker %.1f MB)",
				thrMed, sp.workUnit, selfMB+childMB, selfMB, maxf(rss), childMB))
	} else {
		layers, spans, err := r.measureTraced(budget)
		if err != nil {
			return result{}, err
		}
		for _, m := range perLayerMetrics {
			metrics[m.name] = metric{layers.values[m.name], m.unit}
		}
		tracedWall := median(layers.walls)
		overhead := (tracedWall - wallMed) / wallMed
		metrics["trace.overhead_frac"] = metric{overhead, "frac"}
		res.report = append(res.report,
			fmt.Sprintf("untraced wall_s p50 %.4f over %d iterations; traced %.4f over %d; tracing overhead %+.2f%%",
				wallMed, len(plain), tracedWall, len(layers.walls), 100*overhead))
		res.report = append(res.report, r.w.explain(layers.values, wallMed)...)
		if cfg.spanDir != "" {
			path, err := saveSpans(cfg, spans)
			if err != nil {
				return result{}, err
			}
			res.report = append(res.report, "spans written to "+path)
		}
	}
	ops := r.ops
	errorRate := float64(ops.failed) / float64(max(ops.attempted, 1))
	res.report = append(res.report, fmt.Sprintf("ops attempted %d, failed %d, error_rate %g",
		ops.attempted, ops.failed, errorRate))
	for _, n := range ops.notes {
		res.report = append(res.report, "FAIL: "+n)
	}
	res.summary = summary{
		Correct:   ops.failed == 0 && ops.attempted > 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   metrics,
	}
	return res, nil
}

// setup runs and times one setup.
func (r *runner) setup(traced bool) error {
	t0 := time.Now()
	if err := r.w.setup(traced); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0))
	return nil
}

// measure runs untraced iterations within budget (at least one),
// checking each iteration's outputs outside the timed region.
func (r *runner) measure(budget time.Duration) ([]iteration, error) {
	var its []iteration
	for p := newPacer(budget); p.more(len(its)); p.done() {
		it, err := r.runOnce(nil, len(its))
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	return its, nil
}

// pacer keeps a phase within its budget: it starts another iteration
// only if one more, as long as the last, still ends within the budget.
// A phase of long iterations (the full paper suite) thus ends near its
// budget instead of overrunning it by up to one iteration.
type pacer struct {
	budget      time.Duration
	start, iter time.Time
	last        time.Duration
}

func newPacer(budget time.Duration) *pacer {
	now := time.Now()
	return &pacer{budget: budget, start: now, iter: now}
}

// more reports whether to start iteration n.
func (p *pacer) more(n int) bool {
	return n == 0 || time.Since(p.start)+p.last <= p.budget
}

// done marks the end of an iteration.
func (p *pacer) done() {
	now := time.Now()
	p.last = now.Sub(p.iter)
	p.iter = now
}

// runOnce is iteration iter of a phase: an optional per-iteration setup,
// the timed operations, the untimed teardown and the output check. CPU
// time counts the benchmark process during the timed operations plus
// every child process reaped by the teardown.
func (r *runner) runOnce(tr *tracer, iter int) (iteration, error) {
	if r.sp.setupEachRun {
		if err := r.setup(tr != nil); err != nil {
			return iteration{}, err
		}
	}
	// Start every iteration from a collected heap, so garbage left by the
	// previous one does not decide when this one's collections run.
	runtime.GC()
	r.rss.reset()
	child0 := cpuTime(rusageChildren)
	self0 := cpuTime(rusageSelf)
	t0 := time.Now()
	if tr != nil {
		tr.root = tr.start("ledger.iteration", 0)
	}
	r.w.run(tr, iter)
	if tr != nil {
		tr.end(tr.root)
	}
	wall := time.Since(t0)
	self1 := cpuTime(rusageSelf)
	peak := r.rss.peakBytes()
	r.w.teardown()
	child1 := cpuTime(rusageChildren)
	r.ops.add(r.w.check())
	return iteration{wall: wall, cpu: self1 - self0 + child1 - child0, work: r.w.work(), rss: peak}, nil
}

// tracedLayers is what the traced iterations yield: per-layer medians and
// each iteration's wall time.
type tracedLayers struct {
	values map[string]float64
	walls  []float64
}

// measureTraced runs traced iterations with the obs probes installed and
// returns the per-layer metrics (the median over iterations of each time
// and share) and the spans of every iteration.
func (r *runner) measureTraced(budget time.Duration) (tracedLayers, []spanSet, error) {
	probes := obs.NewRegistry()
	wire.Up(probes)
	defer wire.Down()
	out := tracedLayers{values: map[string]float64{}}
	per := map[string][]float64{}
	var all []spanSet
	for p := newPacer(budget); p.more(len(all)); p.done() {
		tr := newTracer()
		tr.probes = probes
		before := probes.Snapshot()
		it, err := r.runOnce(tr, len(all))
		if err != nil {
			return out, nil, err
		}
		ss := spanSet(tr.snapshot())
		all = append(all, ss)
		out.walls = append(out.walls, it.wall.Seconds())
		delta := obs.DiffSnapshot(before, probes.Snapshot())
		for k, v := range r.w.layers(ss, delta) {
			per[k] = append(per[k], v)
		}
	}
	for _, m := range perLayerMetrics {
		vs := per[m.name]
		switch {
		case len(vs) == 0:
		case m.unit == "count":
			// Counts come from the first traced iteration, whose inputs
			// depend only on the seed, so they repeat exactly across runs.
			out.values[m.name] = vs[0]
		default:
			out.values[m.name] = median(vs)
		}
	}
	return out, all, nil
}

// saveSpans writes the traced iterations' spans under cfg.spanDir.
func saveSpans(cfg config, spans []spanSet) (string, error) {
	dir := filepath.Join(cfg.spanDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// column projects one value out of every iteration.
func column(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median returns the median of xs (the mean of the middle two for even
// counts); xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func minf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
