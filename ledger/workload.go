package main

import (
	"syscall"
	"time"

	"qswitch/internal/obs"
)

// workload is one benchmark workload. Its inputs are a pure function of
// the seed it was made with.
type workload interface {
	// describe names the workload's size for the report.
	describe() string
	// setup prepares the inputs and warms up, up to the first timed
	// operation; it is timed as setup_s. traced says whether the
	// iterations that follow are traced.
	setup(traced bool) error
	// run executes the timed operations once, keeping each operation's
	// output and error for check; tr is nil when untraced. iter counts
	// the iterations of the current (untraced or traced) phase from 0, so
	// a phase's inputs do not depend on how many iterations the phase
	// before it fitted in.
	run(tr *tracer, iter int)
	// teardown releases what run used; it is not timed.
	teardown()
	// check validates the last run's outputs and counts its operations;
	// it is not timed.
	check() tally
	// work is the last run's throughput numerator, in spec.workUnit.
	work() float64
	// layers derives the per-layer metrics of one traced iteration from
	// its spans and the obs probe counters it moved.
	layers(ss spanSet, probes map[string]float64) map[string]float64
	// explain renders the traced run's per-layer figures as report lines.
	explain(layers map[string]float64, untracedWall float64) []string
}

// spec registers a workload.
type spec struct {
	name string
	make func(seed int64, tiny bool) workload
	// setupEachRun sets up before every timed iteration instead of
	// setupReps times before the first.
	setupEachRun bool
	// workUnit names what the throughput metric counts.
	workUnit string
}

var specs = []spec{
	{name: "paper-suite", make: newPaperSuite, workUnit: "experiments"},
	{name: "mc-ratio", make: newMCRatio, workUnit: "judged seeds"},
	{name: "sim", make: newSim, workUnit: "offered packets"},
	{name: "sharded", make: newSharded, setupEachRun: true, workUnit: "judged seeds"},
}

func workloadByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// layerMetric is one per-layer metric every traced run reports; a
// workload that does not exercise the layer reports 0.
type layerMetric struct{ name, unit string }

// perLayerMetrics lists the per-layer metrics in report order.
var perLayerMetrics = func() []layerMetric {
	var ms []layerMetric
	for _, id := range experimentIDs {
		ms = append(ms, layerMetric{"experiments." + id + ".s", "s"})
	}
	ms = append(ms,
		layerMetric{"split.e16.wall_frac", "frac"},
		layerMetric{"split.e3.wall_frac", "frac"},
		layerMetric{"split.sim.wall_frac", "frac"},
		layerMetric{"split.e16.cpu_frac", "frac"},
		layerMetric{"split.e3.cpu_frac", "frac"},
		layerMetric{"split.sim.cpu_frac", "frac"},
		layerMetric{"judge.solves", "count"},
		layerMetric{"judge.exact_solves", "count"},
		layerMetric{"judge.epochs_per_solve", "count"},
		layerMetric{"offline.ub.s", "s"},
		layerMetric{"offline.ub.ns_per_pkt", "ns"},
		layerMetric{"fleet.run.s", "s"},
		layerMetric{"fleet.kernel_frac", "frac"},
		layerMetric{"packet.generate.s", "s"},
		layerMetric{"packet.pkts", "count"},
		layerMetric{"ratio.self.s", "s"},
	)
	for _, c := range simCells {
		ms = append(ms, layerMetric{"switchsim." + c.name + ".s", "s"})
	}
	for _, c := range simCells {
		ms = append(ms, layerMetric{"switchsim.stream." + c.name + ".s", "s"})
	}
	ms = append(ms,
		layerMetric{"switchsim.ns_per_slot", "ns"},
		layerMetric{"switchsim.jumped_frac", "frac"},
		layerMetric{"switchsim." + crossDrainCell + ".jumped_frac", "frac"},
		layerMetric{"shard.chunk.p50_ms", "ms"},
		layerMetric{"shard.chunk.p95_ms", "ms"},
		layerMetric{"shard.chunk.samples", "count"},
		layerMetric{"shard.chunks", "count"},
		layerMetric{"shard.retries", "count"},
		layerMetric{"shard.overhead_frac", "frac"},
		layerMetric{"trace.overhead_frac", "frac"},
	)
	return ms
}()

// judgeLayers reads the judge probe counters of one iteration.
func judgeLayers(out, probes map[string]float64) {
	solves := probes[obs.MetricJudgeSolves]
	out["judge.solves"] = solves
	out["judge.exact_solves"] = probes[obs.MetricJudgeExactSolves]
	if solves > 0 {
		out["judge.epochs_per_solve"] = probes[obs.MetricJudgeEpochs] / solves
	}
}

const (
	rusageSelf     = syscall.RUSAGE_SELF
	rusageChildren = syscall.RUSAGE_CHILDREN
)

// cpuTime is the user+system CPU time of the process (rusageSelf) or of
// its reaped children (rusageChildren). Getrusage fails only for an
// invalid who or buffer, neither of which can happen here.
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childPeakRSS returns the peak resident set of the largest reaped child
// process, in KiB.
func childPeakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageChildren, &ru); err != nil {
		panic(err)
	}
	return ru.Maxrss
}
