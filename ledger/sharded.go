package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qswitch/internal/experiments"
	"qswitch/internal/obs"
	"qswitch/internal/ratio"
	"qswitch/internal/shard"
	"qswitch/internal/stats"
)

const (
	// workerEnv makes the benchmark binary (or its test binary) serve the
	// shard protocol on stdio instead of running a workload.
	workerEnv = "LEDGER_SHARD_WORKER"
	// busyEnv names the file a traced worker keeps its busy time in.
	busyEnv = "LEDGER_WORKER_BUSY"
	// shardWorkers is the worker count of qswitchctl -workers 2.
	shardWorkers = 2
)

// shardedIDs are the experiments qswitchctl can shard.
var shardedIDs = []string{"e1", "e2", "e3", "e4"}

// sharded runs E1–E4 with Options.Shard set to a shard.Coordinator over
// two local stdio workers, as qswitchctl -workers 2 -run e1,e2,e3,e4 does.
// Every iteration spawns fresh workers (setup) and reaps them (teardown),
// so the coordinator's result cache never answers a chunk. Iterations
// step through the suite seeds as paper-suite's do, and are checked
// against the same recorded digests of the in-process tables. One
// operation is one chunk.
type sharded struct {
	seed  int64 // benchmark seed
	quick bool
	exps  []experiments.Experiment
	cur   int64 // suite seed of the last run

	coord    *shard.Coordinator
	busyDir  string
	tables   [][]*stats.Table
	errs     []error
	chunks   []int         // chunks issued per experiment
	seeds    int64         // seeds in those chunks
	busy     time.Duration // traced: Σ worker busy time
	shardSts shard.CoordinatorStats
}

func newSharded(seed int64, tiny bool) workload {
	s := &sharded{seed: seed, quick: tiny}
	for _, id := range shardedIDs {
		e, _ := experiments.ByID(id)
		s.exps = append(s.exps, e)
	}
	s.tables = make([][]*stats.Table, len(s.exps))
	s.errs = make([]error, len(s.exps))
	s.chunks = make([]int, len(s.exps))
	return s
}

func (s *sharded) describe() string {
	mode := "full"
	if s.quick {
		mode = "quick"
	}
	return fmt.Sprintf("%s, %s mode, %d stdio workers", strings.Join(shardedIDs, ","), mode, shardWorkers)
}

// setup spawns the workers and waits until each has completed the hello
// handshake.
func (s *sharded) setup(traced bool) error {
	if refsErr != nil {
		return refsErr
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var opts shard.CoordinatorOptions
	s.busyDir = ""
	if traced {
		if s.busyDir, err = os.MkdirTemp(filepath.Dir(exe), "ledger-busy-"); err != nil {
			return err
		}
	}
	for i := 0; i < shardWorkers; i++ {
		env := []string{workerEnv + "=1"}
		if traced {
			env = append(env, busyEnv+"="+filepath.Join(s.busyDir, strconv.Itoa(i)))
		}
		opts.Workers = append(opts.Workers, shard.WorkerSpec{Cmd: []string{exe}, Env: env})
	}
	if s.coord, err = shard.NewCoordinator(opts); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for !allServing(s.coord.Health()) {
		if time.Now().After(deadline) {
			s.teardown()
			return fmt.Errorf("workers not serving after 30s: %+v", s.coord.Health())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func allServing(hs []shard.WorkerHealth) bool {
	for _, h := range hs {
		if h.State != "serving" {
			return false
		}
	}
	return true
}

func (s *sharded) run(tr *tracer, iter int) {
	s.cur = suiteSeed(s.seed + int64(iter))
	svc := &chunkMeter{next: s.coord}
	opts := experiments.Options{Quick: s.quick, Seed: s.cur, Shard: svc}
	for i, e := range s.exps {
		if tr == nil {
			s.tables[i], s.errs[i] = e.Run(opts)
		} else {
			id := tr.start("experiments."+e.ID, tr.root)
			svc.tr, svc.parent = tr, id
			s.tables[i], s.errs[i] = e.Run(opts)
			tr.end(id)
		}
		s.chunks[i] = int(svc.chunks.Swap(0))
	}
	s.seeds = svc.seeds.Load()
}

// teardown closes the coordinator, which kills and reaps the workers,
// then reads the busy time traced workers recorded.
func (s *sharded) teardown() {
	if s.coord == nil {
		return
	}
	s.shardSts = s.coord.Stats()
	s.coord.Close()
	s.coord = nil
	if s.busyDir == "" {
		return
	}
	s.busy = 0
	for i := 0; i < shardWorkers; i++ {
		b, err := os.ReadFile(filepath.Join(s.busyDir, strconv.Itoa(i)))
		if err != nil {
			continue // the worker ran no chunk
		}
		if sec, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64); err == nil {
			s.busy += time.Duration(sec * float64(time.Second))
		}
	}
	os.RemoveAll(s.busyDir)
}

// check fails every chunk of an experiment whose tables differ from the
// in-process tables at the same seed, and every chunk the coordinator had
// to run in process because no worker could. The recorded digest covers
// every cell, title and header of E1–E4, so any byte of difference fails.
func (s *sharded) check() tally {
	var t tally
	for i, e := range s.exps {
		n := max(s.chunks[i], 1)
		t.attempted += n
		if c := checkTables(s.quick, s.cur, e.ID, s.tables[i], s.errs[i]); c.failed > 0 {
			t.fail(n, "%s (%d chunks)", c.notes[0], n)
		}
	}
	if l := s.shardSts.LocalChunks; l > 0 {
		t.fail(int(l), "%d chunks ran in process: no worker was serving", l)
	}
	return t
}

func (s *sharded) work() float64 { return float64(s.seeds) }

func (s *sharded) layers(ss spanSet, probes map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, id := range shardedIDs {
		out["experiments."+id+".s"] = ss.total("experiments." + id)
	}
	rtts := ss.durations("shard.chunk")
	var sum time.Duration
	for _, d := range rtts {
		sum += d
	}
	out["shard.chunk.p50_ms"] = float64(quantile(rtts, 0.5)) / float64(time.Millisecond)
	out["shard.chunk.p95_ms"] = float64(quantile(rtts, 0.95)) / float64(time.Millisecond)
	out["shard.chunk.samples"] = float64(len(rtts))
	out["shard.chunks"] = float64(s.shardSts.ChunksExecuted)
	out["shard.retries"] = float64(s.shardSts.Retries)
	if sum > 0 {
		out["shard.overhead_frac"] = 1 - s.busy.Seconds()/sum.Seconds()
	}
	return out
}

func (s *sharded) explain(l map[string]float64, untracedWall float64) []string {
	return []string{
		fmt.Sprintf("%.0f chunks (%.0f retries); round trip p50 %.2f ms, p95 %.2f ms over %.0f samples; service overhead %.1f%% of round-trip time",
			l["shard.chunks"], l["shard.retries"], l["shard.chunk.p50_ms"], l["shard.chunk.p95_ms"],
			l["shard.chunk.samples"], 100*l["shard.overhead_frac"]),
		fmt.Sprintf("e1 %.3fs, e2 %.3fs, e3 %.3fs, e4 %.3fs",
			l["experiments.e1.s"], l["experiments.e2.s"], l["experiments.e3.s"], l["experiments.e4.s"]),
	}
}

// chunkMeter is the ratio.ChunkService the experiments see: it forwards
// to the coordinator, counts chunks and seeds, and in traced iterations
// records a "shard.chunk" span around each round trip.
type chunkMeter struct {
	next   ratio.ChunkService
	chunks atomic.Int64
	seeds  atomic.Int64
	tr     *tracer
	parent spanID
}

func (m *chunkMeter) RatioChunk(ctx context.Context, req ratio.ChunkRequest) ([]ratio.SeedOutcome, error) {
	m.chunks.Add(1)
	m.seeds.Add(int64(req.K1 - req.K0))
	if m.tr == nil {
		return m.next.RatioChunk(ctx, req)
	}
	id := m.tr.start("shard.chunk", m.parent)
	defer m.tr.end(id)
	return m.next.RatioChunk(ctx, req)
}

// serveWorker serves the shard protocol on stdio, as qswitchctl's spawned
// workers do. With busyEnv set it also keeps the session's total chunk
// execution time in that file, rewritten before each result frame
// leaves, so the coordinator side can read it after reaping the worker.
func serveWorker() int {
	var opts shard.ServeOptions
	var w io.Writer = os.Stdout
	if path := os.Getenv(busyEnv); path != "" {
		opts.Metrics = obs.NewRegistry()
		w = &busyWriter{w: w, reg: opts.Metrics, path: path}
	}
	if err := shard.Serve(os.Stdin, w, opts); err != nil {
		fmt.Fprintln(os.Stderr, "ledger worker:", err)
		return 1
	}
	return 0
}

// busyWriter persists the worker's chunk-seconds total whenever a frame
// is written after a chunk completed.
type busyWriter struct {
	w     io.Writer
	reg   *obs.Registry
	path  string
	count int64
}

func (b *busyWriter) Write(p []byte) (int, error) {
	h := b.reg.Histogram(shard.MetricWorkerChunkSeconds)
	if n := h.Count(); n != b.count {
		b.count = n
		if err := os.WriteFile(b.path, []byte(strconv.FormatFloat(h.Sum(), 'g', -1, 64)), 0o644); err != nil {
			return 0, err
		}
	}
	return b.w.Write(p)
}
