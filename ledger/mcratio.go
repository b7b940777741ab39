package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// fleetBatch is the batch size switchbench -fleet hands to ratio.RunFleet.
const fleetBatch = 64

// mcCell is one Monte-Carlo ratio estimation: a policy family on one
// geometry and traffic mix, judged by the reused upper-bound judge.
type mcCell struct {
	name  string
	cfg   switchsim.Config
	alg   ratio.FleetAlgFactory
	judge ratio.JudgeFactory
	gen   packet.Generator
	seeds int
}

// mcCells are the mc-ratio cells at overload with short horizons, as in
// BenchmarkFleetRatioGM16B256. Together they reach the narrow unit-value
// kernel, the weighted CIOQ and crossbar kernels, the wide (65–512 port)
// engine, KRMWM's Hungarian matching, and (KRMM, which has no batched
// kernel) the per-instance scalar fallback.
func mcCells(tiny bool) []mcCell {
	seeds := func(full int) int {
		if tiny {
			return 8
		}
		return full
	}
	cioq := func(n, slots int) switchsim.Config {
		return switchsim.Config{Inputs: n, Outputs: n, InputBuf: 2, OutputBuf: 2, Speedup: 1, Slots: slots}
	}
	xbar := func(n, slots int) switchsim.Config {
		c := cioq(n, slots)
		c.CrossBuf = 1
		return c
	}
	weighted := packet.UniformValues{Hi: 50}
	return []mcCell{
		{"cioq-gm-16", cioq(16, 64),
			ratio.CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} }),
			ratio.UpperBoundCIOQ, packet.Bernoulli{Load: 1.2}, seeds(256)},
		{"cioq-pg-64", cioq(64, 32),
			ratio.CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.PG{} }),
			ratio.UpperBoundCIOQ, packet.Bernoulli{Load: 1.1, Values: weighted}, seeds(64)},
		{"xbar-cpg-32", xbar(32, 32),
			ratio.CrossbarFleetAlg(func() switchsim.CrossbarPolicy { return &core.CPG{} }),
			ratio.UpperBoundCrossbar, packet.Bernoulli{Load: 1.1, Values: weighted}, seeds(128)},
		{"xbar-cgu-128", xbar(128, 16),
			ratio.CrossbarFleetAlg(func() switchsim.CrossbarPolicy { return &core.CGU{} }),
			ratio.UpperBoundCrossbar, packet.Bernoulli{Load: 1.0}, seeds(32)},
		{"cioq-krmwm-16", cioq(16, 32),
			ratio.CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.KRMWM{} }),
			ratio.UpperBoundCIOQ, packet.Bernoulli{Load: 1.2, Values: weighted}, seeds(128)},
		{"cioq-krmm-16", cioq(16, 32),
			ratio.CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.KRMM{} }),
			ratio.UpperBoundCIOQ, packet.Bernoulli{Load: 1.2}, seeds(64)},
	}
}

// mcRatio runs ratio.RunFleet (the switchbench -fleet path: one worker,
// batches of 64) over every cell. One operation is one (cell, seed).
type mcRatio struct {
	seed  int64
	cells []mcCell
	ests  []ratio.Estimate
	errs  []error

	// Traced iterations count the packets generated and judged.
	genPkts, judgedPkts atomic.Int64
}

func newMCRatio(seed int64, tiny bool) workload {
	cells := mcCells(tiny)
	return &mcRatio{seed: seed, cells: cells,
		ests: make([]ratio.Estimate, len(cells)), errs: make([]error, len(cells))}
}

func (m *mcRatio) describe() string {
	var parts []string
	for _, c := range m.cells {
		parts = append(parts, fmt.Sprintf("%s×%d", c.name, c.seeds))
	}
	return strings.Join(parts, ", ")
}

// baseSeed spreads the cells' seed streams apart.
func (m *mcRatio) baseSeed(i int) int64 { return m.seed*1_000_003 + int64(i)*100_000 }

// setup warms up every cell on a few seeds outside the measured streams.
func (m *mcRatio) setup(bool) error {
	for i, c := range m.cells {
		if _, err := ratio.RunFleet(context.Background(), c.cfg, c.alg, c.judge, c.gen,
			m.baseSeed(i)-1000, 8, 1, fleetBatch); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.name, err)
		}
	}
	return nil
}

func (m *mcRatio) run(tr *tracer, _ int) {
	m.genPkts.Store(0)
	m.judgedPkts.Store(0)
	for i, c := range m.cells {
		alg, judge, gen := c.alg, c.judge, c.gen
		var id spanID
		if tr != nil {
			id = tr.start("ratio.RunFleet", tr.root)
			alg = tracedFleetAlg(tr, id, alg)
			judge = tracedJudge(tr, id, judge, &m.judgedPkts)
			gen = tracedGen{gen, tr, id, &m.genPkts}
		}
		m.ests[i], m.errs[i] = ratio.RunFleet(context.Background(), c.cfg, alg, judge, gen,
			m.baseSeed(i), c.seeds, 1, fleetBatch)
		if tr != nil {
			tr.end(id)
		}
	}
}

func (m *mcRatio) teardown() {}

// check fails every seed of a cell that errored, every seed whose ALG
// beat the upper bound (ratio < 1), and the seeds missing from
// Runs + Skipped.
func (m *mcRatio) check() tally {
	var t tally
	for i, c := range m.cells {
		t.attempted += c.seeds
		if m.errs[i] != nil {
			t.fail(c.seeds, "%s: %v", c.name, m.errs[i])
			continue
		}
		t.add(checkEstimate(c.name, m.ests[i], c.seeds))
	}
	return t
}

// checkEstimate checks one cell's estimate; the returned tally carries
// failures only.
func checkEstimate(name string, est ratio.Estimate, seeds int) tally {
	var t tally
	for k, s := range est.Samples {
		if !(s >= 1) {
			t.fail(1, "%s: sample %d has ratio %g < 1: the policy beat the upper bound", name, k, s)
		}
	}
	if got := est.Runs + est.Skipped; got != seeds {
		t.fail(max(seeds-got, got-seeds), "%s: Runs+Skipped = %d, want %d seeds", name, got, seeds)
	}
	return t
}

func (m *mcRatio) work() float64 {
	var n int
	for _, c := range m.cells {
		n += c.seeds
	}
	return float64(n)
}

func (m *mcRatio) layers(ss spanSet, probes map[string]float64) map[string]float64 {
	out := map[string]float64{
		"offline.ub.s":      ss.total("offline.ub"),
		"fleet.run.s":       ss.total("fleet.run"),
		"packet.generate.s": ss.total("packet.generate"),
		"packet.pkts":       float64(m.genPkts.Load()),
		"ratio.self.s":      ss.selfTotal("ratio.RunFleet"),
	}
	if n := m.judgedPkts.Load(); n > 0 {
		out["offline.ub.ns_per_pkt"] = out["offline.ub.s"] * 1e9 / float64(n)
	}
	kernel, fallback := probes[obs.MetricFleetKernel], probes[obs.MetricFleetFallback]
	if kernel+fallback > 0 {
		out["fleet.kernel_frac"] = kernel / (kernel + fallback)
	}
	judgeLayers(out, probes)
	return out
}

func (m *mcRatio) explain(l map[string]float64, untracedWall float64) []string {
	return []string{
		fmt.Sprintf("offline upper-bound judge %.3fs (%.0f ns/pkt), fleet %.3fs (kernel share %.3f), packet generation %.3fs (%.0f pkts), RunFleet self %.4fs",
			l["offline.ub.s"], l["offline.ub.ns_per_pkt"], l["fleet.run.s"], l["fleet.kernel_frac"],
			l["packet.generate.s"], l["packet.pkts"], l["ratio.self.s"]),
		fmt.Sprintf("judge share of untraced wall_s %.1f%%; the fleet overlaps judging on a side goroutine",
			100*l["offline.ub.s"]/untracedWall),
		fmt.Sprintf("judge: %.0f upper-bound solves, %.1f epochs/solve", l["judge.solves"], l["judge.epochs_per_solve"]),
	}
}

// tracedJudge wraps every judge the factory mints in an "offline.ub" span
// per call, counting the packets judged.
func tracedJudge(tr *tracer, parent spanID, f ratio.JudgeFactory, pkts *atomic.Int64) ratio.JudgeFactory {
	return func() ratio.Judge {
		j := f()
		return ratio.JudgeFunc(func(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
			id := tr.start("offline.ub", parent)
			v, err := j.Judge(cfg, seq)
			tr.end(id)
			pkts.Add(int64(len(seq)))
			return v, err
		})
	}
}

// tracedFleetAlg wraps every FleetAlg the factory mints in a "fleet.run"
// span per batch.
func tracedFleetAlg(tr *tracer, parent spanID, f ratio.FleetAlgFactory) ratio.FleetAlgFactory {
	return func() ratio.FleetAlg {
		a := f()
		return func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			id := tr.start("fleet.run", parent)
			defer tr.end(id)
			return a(cfg, seqs)
		}
	}
}

// tracedGen wraps a generator in a "packet.generate" span per call,
// counting the packets generated.
type tracedGen struct {
	packet.Generator
	tr     *tracer
	parent spanID
	pkts   *atomic.Int64
}

func (g tracedGen) Generate(rng *rand.Rand, inputs, outputs, slots int) packet.Sequence {
	id := g.tr.start("packet.generate", g.parent)
	seq := g.Generator.Generate(rng, inputs, outputs, slots)
	g.tr.end(id)
	g.pkts.Add(int64(len(seq)))
	return seq
}
