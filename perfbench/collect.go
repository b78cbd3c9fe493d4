package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gate"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/spec"
)

// baselinePath is the committed gate baseline, relative to the repository
// root the benchmark runs from.
const baselinePath = "BENCH_BASELINE.json"

// defaultSeed is the master seed BENCH_BASELINE.json was collected with.
const defaultSeed = 2013

// levelsDigest is the SHA-256 of the stabilized-levels artifacts (-O1, -O2,
// -O3, host times stripped) at defaultSeed. A change to the simulator that
// alters samples changes it; a speed-only change must not.
const levelsDigest = "d0a5e7fd28ce6bd22700519313f8762a5da4cff0b64c5f737ac91bd37059eed2"

// recorder is an experiment.CellSource that never serves a cell, so every
// cell is computed, and keeps the per-run results each computed cell
// stores: the public view of a run's host time, runtime activity and
// machine counters, which the artifact alone does not carry.
type recorder struct {
	mu    sync.Mutex
	cells map[string][]experiment.RunResult
}

func newRecorder() *recorder {
	return &recorder{cells: map[string][]experiment.RunResult{}}
}

func (r *recorder) Lookup(string, int, uint64) []experiment.RunResult { return nil }

func (r *recorder) Store(_ context.Context, key string, _ int, _ uint64, results []experiment.RunResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[key] = results
	return nil
}

// get returns the stored results of a cell, or nil.
func (r *recorder) get(key string) []experiment.RunResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cells[key]
}

// simWork is the simulated work of a set of runs. It depends only on the
// seeds and configuration, never on host speed or tracing.
type simWork struct {
	Runs        int
	Counters    machine.Counters
	Rerands     uint64
	Relocations uint64
}

func (w *simWork) add(results []experiment.RunResult) {
	for _, r := range results {
		w.Runs++
		w.Counters = w.Counters.Add(r.Counters)
		w.Rerands += r.Rerands
		w.Relocations += r.Relocations
	}
}

// runsOf returns every run the recorder saw, and their simulated work.
func (r *recorder) runsOf() ([]experiment.RunResult, simWork) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []experiment.RunResult
	var w simWork
	for _, rs := range r.cells {
		all = append(all, rs...)
		w.add(rs)
	}
	return all, w
}

// goldenBytes encodes an artifact without its host-dependent parts (host
// times, engine tag, commit), so two collections of the same cells compare
// byte for byte.
func goldenBytes(a *bench.Artifact) ([]byte, error) {
	c := *a
	c.Meta.Commit, c.Meta.Engine = "", ""
	c.Benchmarks = append([]bench.Benchmark(nil), a.Benchmarks...)
	for i := range c.Benchmarks {
		c.Benchmarks[i].HostSeconds = nil
		c.Benchmarks[i].Provenance = nil
	}
	return c.Encode()
}

// collectRound is what both collect workloads observe in one round.
type collectRound struct {
	arts    []*bench.Artifact
	results []experiment.RunResult
	work    simWork
	scope   *obs.Scope // engine spans and counters; nil when untraced
}

// collectAll runs bench.Collect once per options set through a recorder,
// with the engine's observability scope installed when traced.
func collectAll(ctx context.Context, tr *tracer, optss []bench.CollectOptions) (*collectRound, error) {
	cr := &collectRound{}
	if tr != nil {
		cr.scope = obs.NewScope()
		experiment.SetObs(cr.scope)
		defer experiment.SetObs(nil)
	}
	rec := newRecorder()
	ctx = experiment.WithCellStore(ctx, rec)
	for _, o := range optss {
		end := tr.span("experiment.collect")
		art, err := bench.Collect(ctx, o)
		end()
		if err != nil {
			return nil, err
		}
		cr.arts = append(cr.arts, art)
	}
	cr.results, cr.work = rec.runsOf()
	return cr, nil
}

// stats turns a collect round into round statistics: the operation is one
// simulated run, timed by its interpreter host time.
func (cr *collectRound) stats(wall time.Duration, cpu cpuTime, cells int) roundStats {
	st := roundStats{wall: wall.Seconds(), busy: wall.Seconds(), cpu: cpu, cells: cells, work: cr.work}
	for _, r := range cr.results {
		st.instructions += r.Instructions
		st.ops = append(st.ops, r.HostSeconds*1e3)
	}
	return st
}

// compileSuite compiles every benchmark under each configuration from an
// empty compile cache, as a fresh process does.
func compileSuite(cfgs []experiment.Config) error {
	experiment.ResetCompileCache()
	for _, cfg := range cfgs {
		for _, b := range spec.Suite() {
			if _, err := experiment.CompileBench(b, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// gateQuick is one CI gate job per round: a fresh compile (every CLI run
// recompiles), `szgate run -quick -throughput`, and `szgate compare`
// against the committed baseline without the host-dependent IPS floor.
type gateQuick struct {
	seed   uint64
	tally  *tally
	opts   bench.CollectOptions
	base   *bench.Artifact // gate reference: the baseline, or round 1
	golden []byte          // expected golden bytes, once known
}

func newGateQuick(seed uint64, t *tally) *gateQuick {
	return &gateQuick{seed: seed, tally: t, opts: bench.CollectOptions{
		Config:     experiment.Config{Scale: 0.2, Level: compiler.O2},
		Runs:       8,
		Seed:       seed,
		Throughput: true,
	}}
}

func (g *gateQuick) setup(context.Context) error {
	base, err := bench.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	if g.seed == defaultSeed {
		g.base = base
		if g.golden, err = goldenBytes(base); err != nil {
			return err
		}
	}
	return compileSuite([]experiment.Config{g.opts.Config})
}

func (g *gateQuick) round(ctx context.Context, tr *tracer) (roundStats, error) {
	start, cpu0 := time.Now(), processCPU()
	experiment.ResetCompileCache()
	cr, err := collectAll(ctx, tr, []bench.CollectOptions{g.opts})
	if err != nil {
		return roundStats{}, err
	}
	art := cr.arts[0]
	got, err := goldenBytes(art)
	if err != nil {
		return roundStats{}, err
	}
	if g.golden == nil {
		// Any seed but the baseline's: round 1 is the reference the later
		// rounds must reproduce and gate against.
		g.golden, g.base = got, art
	}
	end := tr.span("gate.compare")
	rep, cerr := gate.Compare(g.base, art, gate.Options{})
	end()
	wall, cpu := time.Since(start), processCPU().sub(cpu0)

	g.tally.op(bytes.Equal(got, g.golden), "gate-quick: golden samples differ from the reference")
	g.tally.op(cerr == nil && !rep.Fail, "gate-quick: gate did not pass: %v", cerr)
	st := cr.stats(wall, cpu, len(art.Benchmarks))
	g.tally.ops(st.work.Runs)
	st.layers = collectLayers(tr, cr)
	return st, nil
}

// stabilizedLevels collects the full suite at -O1, -O2 and -O3 under full
// STABILIZER randomization: the samples behind Figure 7's "is -O3 faster
// than -O2". Compilation happens once, in set-up.
type stabilizedLevels struct {
	seed  uint64
	tally *tally
	optss []bench.CollectOptions
	want  string // expected digest, once known
}

// levelsRuns is the per-benchmark run count of each level's collection.
const levelsRuns = 2

func newStabilizedLevels(seed uint64, t *tally) *stabilizedLevels {
	s := &stabilizedLevels{seed: seed, tally: t}
	for _, lvl := range []compiler.OptLevel{compiler.O1, compiler.O2, compiler.O3} {
		s.optss = append(s.optss, bench.CollectOptions{
			Config: experiment.Config{
				Scale: 1.0, Level: lvl,
				Stabilizer: &core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: 25_000},
			},
			Runs:       levelsRuns,
			Seed:       seed,
			Throughput: true,
		})
	}
	if seed == defaultSeed {
		s.want = levelsDigest
	}
	return s
}

func (s *stabilizedLevels) setup(context.Context) error {
	var cfgs []experiment.Config
	for _, o := range s.optss {
		cfgs = append(cfgs, o.Config)
	}
	return compileSuite(cfgs)
}

func (s *stabilizedLevels) round(ctx context.Context, tr *tracer) (roundStats, error) {
	start, cpu0 := time.Now(), processCPU()
	cr, err := collectAll(ctx, tr, s.optss)
	if err != nil {
		return roundStats{}, err
	}
	wall, cpu := time.Since(start), processCPU().sub(cpu0)
	h := sha256.New()
	cells := 0
	for _, art := range cr.arts {
		buf, err := goldenBytes(art)
		if err != nil {
			return roundStats{}, err
		}
		h.Write(buf)
		cells += len(art.Benchmarks)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if s.want == "" {
		s.want = got
	}
	s.tally.op(got == s.want, "stabilized-levels: artifact digest %s, want %s", got, s.want)
	st := cr.stats(wall, cpu, cells)
	s.tally.ops(st.work.Runs)
	st.layers = collectLayers(tr, cr)
	return st, nil
}

// tally counts attempted and failed operations and correctness checks.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// ops records n operations that succeeded.
func (t *tally) ops(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// op records one operation or correctness check and, if it failed, why.
func (t *tally) op(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}
