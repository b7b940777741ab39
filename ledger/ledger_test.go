package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestMain lets the sharded workload spawn this test binary as its shard
// workers.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(serveWorker())
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the tests cross-check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that each passes its output checks and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsTiny(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := runBenchmark(config{workload: name, seed: 3, budget: time.Millisecond, traced: traced, tiny: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			s := res.summary
			if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, s.Correct, s.Attempted, s.Failed, strings.Join(res.report, "\n"))
			}
			want := map[string]string{}
			if traced {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(s.Metrics), len(want))
			}
			for k, m := range s.Metrics {
				if want[k] != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", name, traced, k, m.Unit, want[k])
				}
			}
			if !traced {
				for _, k := range []string{"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "throughput"} {
					if !(s.Metrics[k].Value > 0) {
						t.Errorf("%s: %s = %v, want > 0", name, k, s.Metrics[k].Value)
					}
				}
			}
		}
	}
}

// TestPaperSuiteCorruptionFails flips one table cell, then writes a
// VIOLATED verdict; each must fail exactly that experiment.
func TestPaperSuiteCorruptionFails(t *testing.T) {
	p := newPaperSuite(1, true).(*paperSuite)
	if err := p.setup(false); err != nil {
		t.Fatal(err)
	}
	p.run(nil, 0)
	if got := p.check(); got.failed != 0 {
		t.Fatalf("clean run failed: %v", got.notes)
	}
	cell := &p.tables[0][0].Rows[0][len(p.tables[0][0].Rows[0])-1]
	orig := *cell
	*cell += "x"
	if got := p.check(); got.failed != 1 || !strings.Contains(got.notes[0], "digest") {
		t.Errorf("flipped cell: failed=%d notes=%v, want 1 digest failure", got.failed, got.notes)
	}
	*cell = "VIOLATED"
	if got := p.check(); got.failed != 1 || !strings.Contains(got.notes[0], "VIOLATED") {
		t.Errorf("VIOLATED verdict: failed=%d notes=%v, want 1 verdict failure", got.failed, got.notes)
	}
	*cell = orig
	if got := p.check(); got.failed != 0 {
		t.Errorf("restored cell still fails: %v", got.notes)
	}
}

// TestPaperSuiteIgnoresTimingColumns changes a host-timing cell of E5,
// which the digest leaves out by design.
func TestPaperSuiteIgnoresTimingColumns(t *testing.T) {
	p := newPaperSuite(1, true).(*paperSuite)
	if err := p.setup(false); err != nil {
		t.Fatal(err)
	}
	p.run(nil, 0)
	for i, e := range p.exps {
		if e.ID != "e5" {
			continue
		}
		tb := p.tables[i][0]
		for k, h := range tb.Headers {
			if strings.HasSuffix(h, "_ns") {
				tb.Rows[0][k] = "123456789"
			}
		}
	}
	if got := p.check(); got.failed != 0 {
		t.Errorf("timing column change failed the check: %v", got.notes)
	}
}

// TestMCRatioBenefitAboveBoundFails inflates every benefit past the upper
// bound; every judged seed must fail.
func TestMCRatioBenefitAboveBoundFails(t *testing.T) {
	m := newMCRatio(1, true).(*mcRatio)
	m.cells = m.cells[:1]
	inner := m.cells[0].alg
	m.cells[0].alg = func() ratio.FleetAlg {
		a := inner()
		return func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			bs, err := a(cfg, seqs)
			for k := range bs {
				bs[k] = 2*bs[k] + 1000
			}
			return bs, err
		}
	}
	m.run(nil, 0)
	got := m.check()
	judged := m.ests[0].Runs
	if judged == 0 || got.failed != judged || got.attempted != m.cells[0].seeds {
		t.Errorf("failed=%d attempted=%d, want %d failed of %d (notes %v)",
			got.failed, got.attempted, judged, m.cells[0].seeds, got.notes)
	}
}

// TestMCRatioMissingSeedsFail drops seeds from an estimate.
func TestMCRatioMissingSeedsFail(t *testing.T) {
	est := ratio.Estimate{Runs: 6, Skipped: 1, Samples: []float64{1, 1.2, 1.5, 1, 2, 1.1}}
	if got := checkEstimate("c", est, 7); got.failed != 0 {
		t.Errorf("complete estimate failed: %v", got.notes)
	}
	if got := checkEstimate("c", est, 9); got.failed != 2 {
		t.Errorf("2 missing seeds: failed=%d, want 2", got.failed)
	}
}

// TestSimStreamMismatchFails alters one streamed result.
func TestSimStreamMismatchFails(t *testing.T) {
	s := newSim(1, true).(*sim)
	s.run(nil, 0)
	if got := s.check(); got.failed != 0 {
		t.Fatalf("clean run failed: %v", got.notes)
	}
	s.runs[2].str.M.Benefit++
	if got := s.check(); got.failed != 1 {
		t.Errorf("altered streamed benefit: failed=%d, want 1", got.failed)
	}
}

// TestShardedMismatchFails flips a sharded table cell; every chunk of
// that experiment must fail.
func TestShardedMismatchFails(t *testing.T) {
	s := newSharded(2, true).(*sharded)
	if err := s.setup(false); err != nil {
		t.Fatal(err)
	}
	s.run(nil, 0)
	s.teardown()
	if got := s.check(); got.failed != 0 {
		t.Fatalf("clean run failed: %v", got.notes)
	}
	s.tables[0][0].Rows[0][0] += "x"
	got := s.check()
	if got.failed != s.chunks[0] || got.failed == 0 {
		t.Errorf("flipped cell: failed=%d, want the %d chunks of %s", got.failed, s.chunks[0], shardedIDs[0])
	}
}

// TestSelfTime checks self time against overlapping children.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	ss := spanSet{
		{ID: 1, Name: "p", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 0, End: 100 * ms},
	}
	if got, want := ss.selfTime(1), 50*ms; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got, want := ss.selfTime(5), 100*ms; got != want {
		t.Errorf("leaf selfTime = %v, want %v", got, want)
	}
}

// TestSuiteSeedRecorded checks that every benchmark seed maps onto a
// suite seed with recorded digests for all experiments, in both modes.
func TestSuiteSeedRecorded(t *testing.T) {
	if refsErr != nil {
		t.Fatal(refsErr)
	}
	for _, seed := range []int64{-7, 0, 1, 2, 19, 20, 21, 1000003} {
		s := suiteSeed(seed)
		if s < 1 || s > refSeeds {
			t.Fatalf("suiteSeed(%d) = %d", seed, s)
		}
		for _, quick := range []bool{false, true} {
			got := refs[refKey(quick, s)]
			if len(got) != len(experimentIDs) {
				t.Errorf("%s: digests for %v, want all %d experiments", refKey(quick, s), sortedKeys(got), len(experimentIDs))
			}
		}
	}
}
