package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"qswitch/internal/experiments"
	"qswitch/internal/stats"
)

// refSeeds is how many suite seeds have recorded reference digests.
// Iteration i of a run at benchmark seed s runs at suite seed
// suiteSeed(s+i), so every iteration's tables are checked against a
// recorded reference, and a run's median averages over several inputs.
const refSeeds = 20

//go:embed refs/paper-suite.txt
var refsText string

// experimentIDs lists the suite's experiments in registry order.
var experimentIDs = func() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}()

// simOnlyExperiments are the experiments that simulate and judge
// nothing: their share of the suite is the part of ROADMAP.md's
// "simulation share" that spans around Experiment.Run can attribute.
var simOnlyExperiments = []string{"e6", "e7", "e9", "e12", "e13"}

// suiteSeed maps a seed onto 1..refSeeds, the seeds with recorded
// references.
func suiteSeed(seed int64) int64 {
	return 1 + ((seed-1)%refSeeds+refSeeds)%refSeeds
}

// refs holds the embedded reference digests: refKey -> experiment ID ->
// digest. refsErr is checked by every workload's setup.
var refs, refsErr = parseRefs(strings.NewReader(refsText))

// paperSuite runs experiments.All() serially on the default backends.
// One operation is one experiment.
type paperSuite struct {
	seed  int64 // benchmark seed
	quick bool
	exps  []experiments.Experiment

	cur    int64 // suite seed of the last run
	tables [][]*stats.Table
	errs   []error
	cpu    []time.Duration // per experiment, traced iterations only
	total  time.Duration   // CPU of the whole traced iteration
}

func newPaperSuite(seed int64, tiny bool) workload {
	p := &paperSuite{seed: seed, quick: tiny, exps: experiments.All()}
	p.tables = make([][]*stats.Table, len(p.exps))
	p.errs = make([]error, len(p.exps))
	p.cpu = make([]time.Duration, len(p.exps))
	return p
}

func (p *paperSuite) describe() string {
	mode := "full"
	if p.quick {
		mode = "quick"
	}
	return fmt.Sprintf("%d experiments, %s mode, suite seeds from %d", len(p.exps), mode, suiteSeed(p.seed))
}

// setup loads the reference digests and warms up with the suite in quick
// mode.
func (p *paperSuite) setup(bool) error {
	if refsErr != nil {
		return refsErr
	}
	for _, e := range p.exps {
		if _, err := e.Run(experiments.Options{Quick: true, Seed: suiteSeed(p.seed)}); err != nil {
			return fmt.Errorf("warm-up %s: %w", e.ID, err)
		}
	}
	return nil
}

func (p *paperSuite) run(tr *tracer, iter int) {
	p.cur = suiteSeed(p.seed + int64(iter))
	opts := experiments.Options{Quick: p.quick, Seed: p.cur}
	var cpu0 time.Duration
	if tr != nil {
		cpu0 = cpuTime(rusageSelf)
	}
	for i, e := range p.exps {
		if tr == nil {
			p.tables[i], p.errs[i] = e.Run(opts)
			continue
		}
		c0 := cpuTime(rusageSelf)
		id := tr.start("experiments."+e.ID, tr.root)
		p.tables[i], p.errs[i] = e.Run(opts)
		tr.end(id)
		p.cpu[i] = cpuTime(rusageSelf) - c0
	}
	if tr != nil {
		p.total = cpuTime(rusageSelf) - cpu0
	}
}

func (p *paperSuite) teardown() {}

// check fails an experiment that errored, reports a VIOLATED verdict, or
// whose deterministic cells differ from the recorded reference.
func (p *paperSuite) check() tally {
	var t tally
	for i, e := range p.exps {
		t.attempted++
		t.add(checkTables(p.quick, p.cur, e.ID, p.tables[i], p.errs[i]))
	}
	return t
}

// checkTables checks one experiment's tables at a suite seed: it fails
// on an error, on a VIOLATED verdict, and on a digest that differs from
// the recorded one. The returned tally carries the failure only.
func checkTables(quick bool, seed int64, id string, tables []*stats.Table, err error) tally {
	var t tally
	ref := refs[refKey(quick, seed)][id]
	switch {
	case err != nil:
		t.fail(1, "%s: %v", id, err)
	case violated(tables):
		t.fail(1, "%s: a table reports VIOLATED", id)
	case ref == "":
		t.fail(1, "%s: no reference digest recorded for suite seed %d", id, seed)
	default:
		if d := digest(id, tables); d != ref {
			t.fail(1, "%s at suite seed %d: tables digest %s, reference %s", id, seed, d, ref)
		}
	}
	return t
}

func (p *paperSuite) work() float64 { return float64(len(p.exps)) }

func (p *paperSuite) layers(ss spanSet, probes map[string]float64) map[string]float64 {
	out := map[string]float64{}
	root := ss[0].dur().Seconds()
	cpuOf := map[string]time.Duration{}
	for i, e := range p.exps {
		out["experiments."+e.ID+".s"] = ss.total("experiments." + e.ID)
		cpuOf[e.ID] = p.cpu[i]
	}
	frac := func(d, of time.Duration) float64 { return d.Seconds() / max(of.Seconds(), 1e-9) }
	out["split.e16.wall_frac"] = out["experiments.e16.s"] / root
	out["split.e3.wall_frac"] = out["experiments.e3.s"] / root
	out["split.e16.cpu_frac"] = frac(cpuOf["e16"], p.total)
	out["split.e3.cpu_frac"] = frac(cpuOf["e3"], p.total)
	var simWall float64
	var simCPU time.Duration
	for _, id := range simOnlyExperiments {
		simWall += out["experiments."+id+".s"]
		simCPU += cpuOf[id]
	}
	out["split.sim.wall_frac"] = simWall / root
	out["split.sim.cpu_frac"] = frac(simCPU, p.total)
	judgeLayers(out, probes)
	return out
}

func (p *paperSuite) explain(l map[string]float64, untracedWall float64) []string {
	lines := []string{
		fmt.Sprintf("suite split of wall: e16 (iq.ExactOPT via flow MCMF) %.1f%%, e3 (exact crossbar DP) %.1f%%, simulation-only experiments %.1f%%",
			100*l["split.e16.wall_frac"], 100*l["split.e3.wall_frac"], 100*l["split.sim.wall_frac"]),
		fmt.Sprintf("suite split of CPU:  e16 %.1f%%, e3 %.1f%%, simulation-only experiments %.1f%%  (ROADMAP.md pprof: IQ flow 79%%, exact DP ~10%%, simulation ~1%% of CPU)",
			100*l["split.e16.cpu_frac"], 100*l["split.e3.cpu_frac"], 100*l["split.sim.cpu_frac"]),
		fmt.Sprintf("experiments.e16.s is %.1f%% of the untraced wall_s", 100*l["experiments.e16.s"]/untracedWall),
	}
	var parts []string
	for _, id := range experimentIDs {
		parts = append(parts, fmt.Sprintf("%s %.3fs", id, l["experiments."+id+".s"]))
	}
	lines = append(lines, "per experiment: "+strings.Join(parts, ", "),
		fmt.Sprintf("judge: %.0f upper-bound solves (%.1f epochs/solve), %.0f exact DP solves",
			l["judge.solves"], l["judge.epochs_per_solve"], l["judge.exact_solves"]))
	return lines
}

// violated reports whether any cell of any table reads VIOLATED, the
// suite's verdict for a crossed theorem bound.
func violated(tables []*stats.Table) bool {
	for _, tb := range tables {
		for _, row := range tb.Rows {
			for _, c := range row {
				if c == "VIOLATED" {
					return true
				}
			}
		}
	}
	return false
}

// timingColumn reports the columns that hold host timings, which differ
// from run to run by design and are left out of the digest.
func timingColumn(id, header string) bool {
	switch id {
	case "e5":
		return strings.HasSuffix(header, "_ns") || strings.Contains(header, "_vs_")
	case "e9":
		return header == "sim_ns_per_slot"
	}
	return false
}

// digest hashes every deterministic cell of an experiment's tables,
// with titles and headers.
func digest(id string, tables []*stats.Table) string {
	h := sha256.New()
	for _, tb := range tables {
		fmt.Fprintf(h, "table %q\n", tb.Title)
		var keep []int
		for k, hd := range tb.Headers {
			if !timingColumn(id, hd) {
				keep = append(keep, k)
				fmt.Fprintf(h, "%q,", hd)
			}
		}
		fmt.Fprintln(h)
		for _, row := range tb.Rows {
			fmt.Fprintf(h, "%d:", len(row))
			for _, k := range keep {
				if k < len(row) {
					fmt.Fprintf(h, "%q,", row[k])
				}
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func refKey(quick bool, seed int64) string {
	mode := "full"
	if quick {
		mode = "quick"
	}
	return mode + " " + strconv.FormatInt(seed, 10)
}

// parseRefs reads "mode seed experiment digest" lines ('#' starts a
// comment) into refKey -> experiment -> digest.
func parseRefs(r io.Reader) (map[string]map[string]string, error) {
	out := map[string]map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 || (f[0] != "full" && f[0] != "quick") {
			return nil, fmt.Errorf("refs line %d: want \"mode seed experiment digest\", got %q", n, line)
		}
		seed, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("refs line %d: %w", n, err)
		}
		key := refKey(f[0] == "quick", seed)
		if out[key] == nil {
			out[key] = map[string]string{}
		}
		out[key][f[2]] = f[3]
	}
	return out, sc.Err()
}

// recordRefs runs the suite at seeds 1..refSeeds and writes their digests
// in the format parseRefs reads.
func recordRefs(w io.Writer, quick bool) error {
	mode := "full"
	if quick {
		mode = "quick"
	}
	for seed := int64(1); seed <= refSeeds; seed++ {
		for _, e := range experiments.All() {
			tables, err := e.Run(experiments.Options{Quick: quick, Seed: seed})
			if err != nil {
				return fmt.Errorf("seed %d %s: %w", seed, e.ID, err)
			}
			if violated(tables) {
				return fmt.Errorf("seed %d %s: a table reports VIOLATED", seed, e.ID)
			}
			fmt.Fprintf(w, "%s %d %s %s\n", mode, seed, e.ID, digest(e.ID, tables))
		}
	}
	return nil
}
