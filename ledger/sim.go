package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// crossDrainCell is the sim cell whose jumped-slot share says whether a
// closed-form crosspoint-drain hook could pay.
const crossDrainCell = "xbar-cgu-16-crossdrain"

// simCell is one long engine-only simulation.
type simCell struct {
	name     string
	cfg      switchsim.Config
	cioq     func() switchsim.CIOQPolicy // nil for crossbar cells
	crossbar func() switchsim.CrossbarPolicy
	gen      packet.Generator
	// slots is the arrival window; the run lasts until the switch drains.
	slots, tinySlots int
}

// cliCfg is switchsim's default geometry (-bin 4 -bout 4 -bx 2).
func cliCfg(n, speedup int) switchsim.Config {
	return switchsim.Config{Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2, Speedup: speedup}
}

// simCells follow the switchsim CLI examples: the dense slot loop, the
// preemption path, Hungarian matching, the crossbar engines, and two
// 10^6-slot traces shaped for the quiescent jump (BurstyBlocking) and for
// crosspoint drain (CrossDrain).
var simCells = []simCell{
	{name: "cioq-gm-64-bern", cfg: cliCfg(64, 1),
		cioq: func() switchsim.CIOQPolicy { return &core.GM{} },
		gen:  packet.Bernoulli{Load: 0.95}, slots: 6000, tinySlots: 100},
	{name: "cioq-pg-32-bern", cfg: cliCfg(32, 1),
		cioq: func() switchsim.CIOQPolicy { return &core.PG{} },
		gen:  packet.Bernoulli{Load: 1.3, Values: packet.UniformValues{Hi: 100}}, slots: 6000, tinySlots: 100},
	{name: "cioq-krmwm-16-bern", cfg: cliCfg(16, 1),
		cioq: func() switchsim.CIOQPolicy { return &core.KRMWM{} },
		gen:  packet.Bernoulli{Load: 0.95, Values: packet.UniformValues{Hi: 100}}, slots: 3000, tinySlots: 100},
	{name: "xbar-cgu-32-bern", cfg: cliCfg(32, 1),
		crossbar: func() switchsim.CrossbarPolicy { return &core.CGU{} },
		gen:      packet.Bernoulli{Load: 0.95}, slots: 10000, tinySlots: 100},
	{name: "xbar-cpg-16-bursty", cfg: cliCfg(16, 1),
		crossbar: func() switchsim.CrossbarPolicy { return &core.CPG{} },
		gen:      packet.Bursty{OnLoad: 1.3, POnOff: 0.2, POffOn: 0.2, Values: packet.ZipfValues{Hi: 1000, S: 1.2}},
		slots:    20000, tinySlots: 100},
	{name: "cioq-gm-16-blocking",
		cfg:  switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 8, OutputBuf: 128, CrossBuf: 2, Speedup: 2},
		cioq: func() switchsim.CIOQPolicy { return &core.GM{} },
		gen:  packet.BurstyBlocking{OffMean: 2000, Burst: 8}, slots: 1_000_000, tinySlots: 20_000},
	{name: crossDrainCell, cfg: cliCfg(16, 1),
		crossbar: func() switchsim.CrossbarPolicy { return &core.CGU{} },
		gen:      packet.CrossDrain{OffMean: 1000, Sweep: 8, Depth: 2}, slots: 1_000_000, tinySlots: 20_000},
}

// simRun is one cell's pair of results.
type simRun struct {
	mat, str       *switchsim.Result
	matErr, strErr error
}

// sim runs every cell twice: materialized (Generate, then RunCIOQ or
// RunCrossbar) and streamed (packet.StreamTraffic, then RunCIOQStream or
// RunCrossbarStream). StreamTraffic drives the generator's Source through
// a GenStream; BurstyBlocking and CrossDrain have no Source, so their
// streamed runs replay a sequence materialized inside the stream. One
// operation is one simulation.
type sim struct {
	seed int64
	tiny bool
	runs []simRun

	matSlots int64 // traced: slots of the materialized runs
	genPkts  int64 // traced: packets the materialized runs generated
	// crossDrain holds the probe counters the materialized CrossDrain run
	// moved (traced only).
	crossDrain map[string]float64
}

func newSim(seed int64, tiny bool) workload {
	return &sim{seed: seed, tiny: tiny, runs: make([]simRun, len(simCells))}
}

func (s *sim) describe() string {
	return fmt.Sprintf("%d cells, materialized and streamed", len(simCells))
}

func (s *sim) slots(c simCell) int {
	if s.tiny {
		return c.tinySlots
	}
	return c.slots
}

// rng is the cell's input stream; both entries draw from the same seed.
func (s *sim) rng(i int) *rand.Rand { return rand.New(rand.NewSource(s.seed*7919 + int64(i))) }

// setup warms up every cell's engines on a short window.
func (s *sim) setup(bool) error {
	for i, c := range simCells {
		seq := c.gen.Generate(s.rng(i), c.cfg.Inputs, c.cfg.Outputs, c.tinySlots)
		if _, err := c.runSeq(seq); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.name, err)
		}
		if _, err := c.runStream(packet.NewSeqStream(seq)); err != nil {
			return fmt.Errorf("warm-up %s stream: %w", c.name, err)
		}
	}
	return nil
}

func (c simCell) runSeq(seq packet.Sequence) (*switchsim.Result, error) {
	if c.cioq != nil {
		return switchsim.RunCIOQ(c.cfg, c.cioq(), seq)
	}
	return switchsim.RunCrossbar(c.cfg, c.crossbar(), seq)
}

func (c simCell) runStream(src packet.ArrivalStream) (*switchsim.Result, error) {
	if c.cioq != nil {
		return switchsim.RunCIOQStream(c.cfg, c.cioq(), src)
	}
	return switchsim.RunCrossbarStream(c.cfg, c.crossbar(), src)
}

func (s *sim) run(tr *tracer, _ int) {
	s.matSlots, s.genPkts = 0, 0
	for i, c := range simCells {
		n, slots := c.cfg.Inputs, s.slots(c)
		r := &s.runs[i]
		// Each simulation starts from a collected heap, as in a fresh
		// switchsim process, so the previous run's garbage does not decide
		// the peak resident memory.
		if tr == nil {
			runtime.GC()
			r.mat, r.matErr = c.runSeq(c.gen.Generate(s.rng(i), n, n, slots))
			runtime.GC()
			r.str, r.strErr = c.runStream(packet.StreamTraffic(c.gen, s.rng(i), n, n, slots))
			continue
		}
		runtime.GC()
		id := tr.start("packet.generate", tr.root)
		seq := c.gen.Generate(s.rng(i), n, n, slots)
		tr.end(id)
		s.genPkts += int64(len(seq))
		var before map[string]float64
		if c.name == crossDrainCell {
			before = tr.probes.Snapshot()
		}
		id = tr.start("switchsim."+c.name, tr.root)
		r.mat, r.matErr = c.runSeq(seq)
		tr.end(id)
		if before != nil {
			s.crossDrain = obs.DiffSnapshot(before, tr.probes.Snapshot())
		}
		if r.matErr == nil {
			s.matSlots += int64(r.mat.Slots)
		}
		runtime.GC()
		id = tr.start("switchsim.stream."+c.name, tr.root)
		r.str, r.strErr = c.runStream(packet.StreamTraffic(c.gen, s.rng(i), n, n, slots))
		tr.end(id)
	}
}

func (s *sim) teardown() {}

// check fails both runs of a cell when either errors, and the streamed
// run when its Metrics differ from the materialized run's.
func (s *sim) check() tally {
	var t tally
	for i, c := range simCells {
		t.attempted += 2
		r := s.runs[i]
		switch {
		case r.matErr != nil || r.strErr != nil:
			t.fail(2, "%s: materialized error %v, streamed error %v", c.name, r.matErr, r.strErr)
		case r.mat.Slots != r.str.Slots || !reflect.DeepEqual(r.mat.M, r.str.M):
			t.fail(1, "%s: streamed metrics differ from materialized (slots %d vs %d, benefit %d vs %d)",
				c.name, r.str.Slots, r.mat.Slots, r.str.M.Benefit, r.mat.M.Benefit)
		}
	}
	return t
}

// work counts the offered packets of every run.
func (s *sim) work() float64 {
	var n int64
	for _, r := range s.runs {
		if r.mat != nil {
			n += r.mat.M.Arrived
		}
		if r.str != nil {
			n += r.str.M.Arrived
		}
	}
	return float64(n)
}

func (s *sim) layers(ss spanSet, probes map[string]float64) map[string]float64 {
	out := map[string]float64{
		"packet.generate.s": ss.total("packet.generate"),
		"packet.pkts":       float64(s.genPkts),
	}
	var engine float64
	for _, c := range simCells {
		out["switchsim."+c.name+".s"] = ss.total("switchsim." + c.name)
		out["switchsim.stream."+c.name+".s"] = ss.total("switchsim.stream." + c.name)
		engine += out["switchsim."+c.name+".s"]
	}
	if s.matSlots > 0 {
		out["switchsim.ns_per_slot"] = engine * 1e9 / float64(s.matSlots)
	}
	out["switchsim.jumped_frac"] = jumpedFrac(probes)
	out["switchsim."+crossDrainCell+".jumped_frac"] = jumpedFrac(s.crossDrain)
	return out
}

// jumpedFrac is the share of simulated slots the engines advanced in
// closed form.
func jumpedFrac(probes map[string]float64) float64 {
	slots := probes[obs.MetricEngineSlots]
	if slots == 0 {
		return 0
	}
	return probes[obs.MetricEngineJumpedSlots] / slots
}

func (s *sim) explain(l map[string]float64, untracedWall float64) []string {
	lines := []string{fmt.Sprintf("packet generation %.3fs (%.0f pkts), materialized engine %.1f ns/slot, jumped share of all slots %.3f",
		l["packet.generate.s"], l["packet.pkts"], l["switchsim.ns_per_slot"], l["switchsim.jumped_frac"])}
	for _, c := range simCells {
		lines = append(lines, fmt.Sprintf("  %-24s materialized %.4fs  streamed %.4fs",
			c.name, l["switchsim."+c.name+".s"], l["switchsim.stream."+c.name+".s"]))
	}
	jf := l["switchsim."+crossDrainCell+".jumped_frac"]
	return append(lines, fmt.Sprintf("%s: %.1f%% of slots jumped, %.1f%% stepped densely; the dense share bounds what a crosspoint-drain hook could save there",
		crossDrainCell, 100*jf, 100*(1-jf)))
}
