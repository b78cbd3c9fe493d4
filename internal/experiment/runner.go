// Package experiment orchestrates the paper's evaluation: it compiles
// benchmarks at the requested optimization levels, runs them repeatedly
// under native or STABILIZER runtimes, collects execution-time samples, and
// formats the tables and figures of §5 and §6.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/spec"
)

// Config describes one experimental cell: how a benchmark is built and run.
type Config struct {
	// Scale sizes the workload (1.0 = full evaluation size).
	Scale float64
	// Level is the optimization level (default O2, the paper's baseline).
	Level compiler.OptLevel
	// Stabilizer, if non-nil, runs the program under the STABILIZER
	// runtime with these options (the per-run seed overrides Seed).
	Stabilizer *core.Options
	// RandomLinkOrder permutes the link order per run (the Figure 6
	// baseline); otherwise the identity order is used.
	RandomLinkOrder bool
	// EnvSize is the simulated environment block size in bytes.
	EnvSize uint64
	// Noise is the relative standard deviation of the multiplicative
	// system-noise term applied to cycle counts (OS jitter on a real
	// machine; the simulator is otherwise deterministic). Negative
	// disables it; zero selects DefaultNoise; values above 1 (a sigma
	// exceeding the measurement itself) are rejected by CompileBench.
	Noise float64
	// MaxSteps caps retired instructions per run (safety net).
	MaxSteps uint64
	// Profile enables per-function cycle attribution in RunResult.Profile.
	Profile bool
	// Engine selects the interpreter execution engine (default compiled;
	// walk is the differential reference). Both engines produce identical
	// samples — the cross-engine oracle axis enforces it — and only
	// host-side throughput (RunResult.HostSeconds) differs. So CellKey
	// names the engine only in Throughput cells: a golden cell computed
	// under one engine is served from a result store under the other.
	Engine interp.Engine
	// Throughput enables host wall-clock measurement of each interpreter
	// run (RunResult.HostSeconds). Off by default: host time is the one
	// nondeterministic quantity a run can carry, so golden collections keep
	// it zeroed and stay bit-identical across re-runs. Throughput cells get
	// their own cell key, per engine — a replay reports the host time the
	// same engine measured rather than silently serving zeros from a golden
	// cell or the other engine's times.
	Throughput bool
}

// DefaultNoise is the default relative sigma of run-to-run system noise.
const DefaultNoise = 0.0025

// validate rejects configurations that would silently produce garbage
// samples instead of failing loudly.
func (cfg Config) validate() error {
	if math.IsNaN(cfg.Noise) || math.IsInf(cfg.Noise, 0) || cfg.Noise > 1 {
		return fmt.Errorf("experiment: Noise=%v is not a usable relative stddev: "+
			"use a negative value to disable noise, 0 for the default (%g), or a value in (0, 1]",
			cfg.Noise, DefaultNoise)
	}
	if cfg.Scale < 0 || math.IsNaN(cfg.Scale) || math.IsInf(cfg.Scale, 0) {
		return fmt.Errorf("experiment: Scale=%v must be a nonnegative finite workload scale", cfg.Scale)
	}
	return nil
}

// Compiled is a benchmark compiled under one configuration, ready to run
// many times with different seeds. The Module may be shared with other
// Compiled values (see CompileBench) and is never written after compile, so
// concurrent Runs are safe.
type Compiled struct {
	Bench  spec.Benchmark
	Module *ir.Module
	Cfg    Config
}

// CompileBench builds and compiles the benchmark for the configuration.
// Compiled modules are cached per benchmark×scale×level×stabilize, so
// repeated cells (the same benchmark at the same level across sweep points)
// link from one module instead of recompiling.
func CompileBench(b spec.Benchmark, cfg Config) (*Compiled, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, err := compileCached(b, cfg.Scale, compiler.Options{
		Level:     cfg.Level,
		Stabilize: cfg.Stabilizer != nil,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: compile %s: %w", b.Name, err)
	}
	return &Compiled{Bench: b, Module: m, Cfg: cfg}, nil
}

// CompileHeadline compiles the headline cell under engine eng and the
// STABILIZER options stab (nil runs natively): cactusADM, the suite's
// heaviest workload, at scale 0.2 and -O2 with the noise term off. It is
// the cell `szgate floor` and the engine benchmarks time.
func CompileHeadline(eng interp.Engine, stab *core.Options) (*Compiled, error) {
	b, ok := spec.ByName("cactusADM")
	if !ok {
		return nil, errors.New("experiment: cactusADM missing from the suite")
	}
	return CompileBench(b, Config{Scale: 0.2, Level: compiler.O2, Noise: -1, Engine: eng, Stabilizer: stab})
}

// RunResult is one execution's measurements.
type RunResult struct {
	Seconds      float64 // noisy simulated wall time (the measured quantity)
	Cycles       uint64  // raw cycle count before noise
	Instructions uint64
	Output       uint64
	// Runtime activity (zero for native runs).
	Rerands          uint64
	Relocations      uint64
	AdaptiveTriggers uint64
	// Counters is the machine's perf-stat snapshot at program exit.
	Counters machine.Counters
	// Profile is per-function exclusive cycles (nil unless Config.Profile).
	Profile []uint64
	// HostSeconds is the host wall-clock time of the interpreter run —
	// simulator throughput telemetry (engine-dependent), never part of the
	// simulated measurements and never folded into golden outputs. Zero
	// unless Config.Throughput is set.
	HostSeconds float64 `json:"HostSeconds,omitempty"`
}

// Run executes the compiled benchmark once with the given seed. The seed
// determines every random choice of the run: link order (if randomized),
// layout randomization, and the noise draw.
func (c *Compiled) Run(seed uint64) (RunResult, error) {
	return c.RunCtx(context.Background(), seed)
}

// RunCtx is Run with cancellation: the interpreter polls ctx between
// instruction strides, so a cell watchdog or shutdown signal aborts a
// runaway run mid-execution instead of waiting for it to finish. The
// result for a given seed is identical to Run's whenever the run is
// allowed to complete.
func (c *Compiled) RunCtx(ctx context.Context, seed uint64) (RunResult, error) {
	res, _, err := c.runCtx(ctx, seed, false, runFull)
	return res, err
}

// ProfileRun is RunCtx with a layout-attribution profiler attached: the
// returned Profile attributes the run's machine-counter deltas to the
// executing call stack and carries the set-conflict report for the run's
// actual (post-randomization) layout. The observer only snapshots counters
// — it never touches the simulated machine — so the RunResult is identical
// to RunCtx's for the same seed.
func (c *Compiled) ProfileRun(ctx context.Context, seed uint64) (RunResult, *obs.Profile, error) {
	return c.runCtx(ctx, seed, true, runFull)
}

// traceUse says what one run does with a trace: nothing, record into
// capture, or replay replay (see interp.Trace).
type traceUse struct {
	capture, replay *interp.Trace
}

var runFull traceUse

// machines recycles simulated machines across runs. A reset machine is
// indistinguishable from a new one, and resetting costs far less than
// allocating and zeroing fresh tables (the L3 tag array alone is 512 KiB).
var machines = sync.Pool{New: func() any { return machine.New(machine.DefaultConfig()) }}

// runSalt decorrelates a measured run's random stream from its seed: Run
// and Collect build seed's run from the stream seed^runSalt.
const runSalt = 0x5ab1112e

// A Run is one simulated run, assembled by NewRun and ready for
// interp.Run. Release returns its machine to the pool.
type Run struct {
	Machine *machine.Machine
	Runtime interp.Runtime
	// Stabilizer is Runtime when it is the STABILIZER runtime, nil for a
	// native run.
	Stabilizer *core.Stabilizer
	// Stream is the run's random stream after NewRun's draws; the caller's
	// own draws (the noise term) continue it.
	Stream rng.Marsaglia
}

// NewRun builds one run of m under cfg from the already salted stream
// seed. It is the one place a simulated run is assembled: measured runs,
// the semantic-invariance oracle, traced runs and the examples all take
// theirs from it. It reads cfg's EnvSize, RandomLinkOrder and Stabilizer,
// and draws from the stream in this order, which fixes every run's
// layout:
//
//  1. the mmap ASLR stream (Split);
//  2. the link-order stream (Split), only when RandomLinkOrder is set;
//  3. the physical page seed (Next64);
//  4. the STABILIZER seed (Next64), only when Stabilizer is set;
//  5. the heap override's stream (Split), only when heapOverride is given.
//
// A native run gets the fine-grained coalescing TLSF heap in the role of
// libc malloc; STABILIZER's power-of-two base then shows the size-class
// waste the paper attributes cactusADM's overhead to. A non-nil
// heapOverride, which only a STABILIZER run takes, builds the heap
// allocator in place of the runtime's own.
func NewRun(m *ir.Module, cfg Config, seed uint64,
	heapOverride func(*mem.AddressSpace, *rng.Marsaglia) (heap.Allocator, error)) (Run, error) {
	r := rng.NewMarsaglia(seed)
	as := mem.NewAddressSpaceEnv(cfg.EnvSize)
	// mmap ASLR is on for every run, native or stabilized, as on a stock
	// Linux kernel: large allocations land at a fresh random base each run.
	as.SetASLR(r.Split().Intn)
	order := compiler.DefaultOrder(len(m.Funcs))
	if cfg.RandomLinkOrder {
		order = compiler.RandomOrder(len(m.Funcs), r.Split())
	}
	img, err := compiler.Link(m, order, as)
	if err != nil {
		return Run{}, fmt.Errorf("link: %w", err)
	}
	mach := machines.Get().(*machine.Machine)
	// Reset on every take: a run that trapped, panicked or was interrupted
	// put its machine back mid-flight.
	mach.Reset()
	// Every run gets a fresh physical page assignment, as on a real OS.
	mach.SetPhysicalSeed(r.Next64())
	run := Run{Machine: mach}

	if cfg.Stabilizer != nil {
		opts := *cfg.Stabilizer
		opts.Seed = r.Next64()
		if run.Stabilizer, err = core.New(m, mach, as, img.FuncAddrs, img.GlobalAddrs, opts); err != nil {
			run.Release()
			return Run{}, fmt.Errorf("runtime: %w", err)
		}
		run.Runtime = run.Stabilizer
	} else {
		run.Runtime = &interp.NativeRuntime{
			FuncAddrs:   img.FuncAddrs,
			GlobalAddrs: img.GlobalAddrs,
			Stack:       as.StackBase(),
			Heap:        heap.NewTLSF(as, 1<<22),
			Mach:        mach,
		}
	}
	if heapOverride != nil {
		alloc, err := heapOverride(as, r.Split())
		if err != nil {
			run.Release()
			return Run{}, err
		}
		run.Stabilizer.SetHeapAllocator(alloc)
	}
	run.Stream = *r
	return run, nil
}

// Release returns the run's machine to the pool. The run must not be used
// after it.
func (r Run) Release() { machines.Put(r.Machine) }

func (c *Compiled) runCtx(ctx context.Context, seed uint64, profile bool, tu traceUse) (RunResult, *obs.Profile, error) {
	run, err := NewRun(c.Module, c.Cfg, seed^runSalt, nil)
	if err != nil {
		return RunResult{}, nil, fmt.Errorf("experiment: run %s: %w", c.Bench.Name, err)
	}
	defer run.Release()

	var interrupt func() error
	if ctx.Done() != nil {
		interrupt = ctx.Err
	}
	var prof *obs.Profiler
	iopts := interp.Options{
		Machine:   run.Machine,
		Runtime:   run.Runtime,
		MaxSteps:  c.Cfg.MaxSteps,
		Profile:   c.Cfg.Profile,
		Interrupt: interrupt,
		Engine:    c.Cfg.Engine,
		Capture:   tu.capture,
		Replay:    tu.replay,
	}
	if profile {
		prof = obs.NewProfiler(c.Module, machine.DefaultConfig())
		iopts.Observer = prof
	}
	hostStart := time.Now()
	res, err := interp.Run(c.Module, iopts)
	hostElapsed := time.Since(hostStart)
	if err != nil {
		return RunResult{}, nil, fmt.Errorf("experiment: run %s: %w", c.Bench.Name, err)
	}

	noise := c.Cfg.Noise
	if noise == 0 {
		noise = DefaultNoise
	}
	seconds := res.Seconds
	if noise > 0 {
		seconds *= 1 + noise*run.Stream.NormFloat64()
	}
	out := RunResult{
		Seconds:      seconds,
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		Output:       res.Output,
		Counters:     run.Machine.Snapshot(),
		Profile:      res.Profile,
	}
	if c.Cfg.Throughput {
		out.HostSeconds = hostElapsed.Seconds()
	}
	if st := run.Stabilizer; st != nil {
		out.Rerands = st.Stats.Rerands
		out.Relocations = st.Stats.Relocations
		out.AdaptiveTriggers = st.Stats.AdaptiveTriggers
	}
	var p *obs.Profile
	if prof != nil {
		// The runtime is still alive here, so the captured layout is the
		// run's actual one — under randomization, the final placement.
		lay := run.Runtime.Layout()
		prof.CaptureLayout(func(fn int) mem.Addr { return lay.Funcs[fn].Code },
			func(g int) mem.Addr { return lay.Globals[g] })
		p = prof.Profile()
	}
	return out, p, nil
}

// SampleSet is the outcome of a batch of runs of one cell.
type SampleSet struct {
	// Seconds[i] is the measured time of seed seedBase+i.
	Seconds []float64
	// Results[i] is the full measurement of seed seedBase+i.
	Results []RunResult
	// Counters is the perf-stat aggregate: every run's snapshot summed.
	Counters machine.Counters
}

// cellLabel names the cell for progress lines.
func (c *Compiled) cellLabel() string {
	rt := "native"
	if c.Cfg.Stabilizer != nil {
		rt = "stab:" + c.Cfg.Stabilizer.EnabledString()
	}
	return fmt.Sprintf("%s %s %s", c.Bench.Name, c.Cfg.Level, rt)
}

// sampleSetFrom rebuilds a SampleSet from per-run results (fresh or
// served from a cell store — the two are indistinguishable).
func sampleSetFrom(results []RunResult) *SampleSet {
	ss := &SampleSet{Seconds: make([]float64, len(results)), Results: results}
	for i := range results {
		ss.Seconds[i] = results[i].Seconds
		ss.Counters = ss.Counters.Add(results[i].Counters)
	}
	return ss
}

// Collect runs the benchmark `runs` times with seeds seedBase, seedBase+1, …
// sharded across the default pool. Each seed's result lands in its own
// slot, so the output is bit-identical to a sequential loop regardless of
// worker count. The first failing seed cancels the remaining work and its
// error is returned.
//
// Collect is the fault-tolerance boundary of the engine. If ctx carries a
// cell store (WithCellStore), a stored cell is served from it and a fresh
// one is written back on success. If ctx carries a raised drain flag
// (NotifyShutdown's first signal), the cell is not started and ErrStopped
// is returned. A cell that fails with a transient error or a watchdog
// timeout (SetCellTimeout) is retried with capped backoff up to
// SetCellRetries times; the final failure is a *CellError naming the cell
// and the attempt count.
func (c *Compiled) Collect(ctx context.Context, runs int, seedBase uint64) (*SampleSet, error) {
	return c.collect(ctx, NewPool(0), runs, seedBase)
}

func (c *Compiled) collect(ctx context.Context, pool *Pool, runs int, seedBase uint64) (*SampleSet, error) {
	label := c.cellLabel()
	endSpan := obsTrace().Span("cell", label, map[string]any{"runs": runs})
	defer endSpan()
	cs := CellStoreFrom(ctx)
	key := CellKey(c.Bench.Name, c.Cfg, runs, seedBase)
	if cs != nil {
		endLookup := obsTrace().Span("cellstore", "lookup", nil)
		results := cs.Lookup(key, runs, seedBase)
		endLookup()
		if results != nil {
			obsMetrics().Counter("cellstore.hits").Inc()
			obsLog().Info("cell served from result store", obsF("cell", label), obsF("runs", runs))
			return sampleSetFrom(results), nil
		}
		obsMetrics().Counter("cellstore.misses").Inc()
	}
	if StoreOnly(ctx) {
		return nil, &StoreMissError{Label: label, Key: key}
	}
	if Draining(ctx) {
		return nil, fmt.Errorf("experiment: cell %s not started: %w", label, ErrStopped)
	}

	var lastErr error
	attempts := 0
	for attempt := 1; attempt <= 1+CellRetries(); attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		if attempt > 1 {
			obsMetrics().Counter("cell.retries").Inc()
			obsLog().Warn("retrying cell after transient failure",
				obsF("cell", label), obsF("attempt", attempt), obsF("err", lastErr.Error()))
		}
		attempts = attempt
		ss, err := c.collectOnce(ctx, pool, label, attempt, runs, seedBase)
		if err == nil {
			recordAttempts(label, attempts)
			if cs != nil {
				if serr := storeCell(ctx, cs, key, runs, seedBase, ss.Results); serr != nil {
					warnCell(label, "experiment: result store: %v (cell will re-run next time)", serr)
				}
			}
			obsLog().Info("cell collected", obsF("cell", label), obsF("runs", runs), obsF("attempts", attempts))
			return ss, nil
		}
		lastErr = err
		if errors.Is(err, context.DeadlineExceeded) && CellTimeout() > 0 {
			obsMetrics().Counter("watchdog.interrupts").Inc()
			obsLog().Warn("watchdog interrupted cell",
				obsF("cell", label), obsF("attempt", attempt), obsF("timeout", CellTimeout().String()))
		}
		if !retryable(err) {
			break
		}
		if attempt <= CellRetries() {
			if serr := sleepCtx(ctx, backoffDelay(attempt)); serr != nil {
				break
			}
		}
	}
	recordAttempts(label, attempts)
	obsLog().Error("cell failed", obsF("cell", label), obsF("attempts", attempts), obsF("err", fmt.Sprint(lastErr)))
	return nil, &CellError{Label: label, Attempts: attempts, Err: lastErr}
}

// storeCell writes a freshly computed cell back to its cell store. The
// write is best effort for every CellSource: an error, or a panic
// recovered into one, only costs a recompute next time, so the caller
// warns and the sweep carries on.
func storeCell(ctx context.Context, cs CellSource, key string, runs int, seedBase uint64, results []RunResult) (err error) {
	done := obsTrace().Span("cellstore", "store", nil)
	defer done()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("write panicked: %v", r)
		}
	}()
	if err := faultinject.Hit(ctx, faultinject.SiteCellStore); err != nil {
		return err
	}
	return cs.Store(ctx, key, runs, seedBase, results)
}

// collectOnce is one collection attempt of the cell under the watchdog
// deadline. The attempt number annotates progress lines on retries. A
// panic anywhere in the attempt — including in cell setup, which runs on
// the caller's goroutine rather than inside a pool worker — is recovered
// into a *PanicError so no fault can kill the process.
func (c *Compiled) collectOnce(ctx context.Context, pool *Pool, label string, attempt, runs int, seedBase uint64) (ss *SampleSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			ss, err = nil, &PanicError{Label: label, Index: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Hit(ctx, faultinject.SiteCellStart); err != nil {
		return nil, err
	}
	if d := CellTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if attempt > 1 {
		label = fmt.Sprintf("%s (attempt %d)", label, attempt)
	}
	results := make([]RunResult, runs)
	shards := make([]shardTrace, pool.shards(runs))
	for w := range shards {
		shards[w].lo, shards[w].hi = shardRange(runs, len(shards), w)
	}
	defer func() {
		var replayed, dropped, kept uint64
		for w := range shards {
			shards[w].release()
			replayed += shards[w].replayed
			dropped += shards[w].dropped
			kept += shards[w].kept
		}
		met := obsMetrics()
		met.Counter("experiment.runs.replayed").NonGolden().Add(replayed)
		met.Counter("experiment.traces.dropped").NonGolden().Add(dropped)
		met.Counter("experiment.traces.kept").NonGolden().Add(kept)
		if kept > 0 {
			met.Gauge("experiment.traces.kept_bytes").Set(float64(keptBytes.Load()))
		}
	}()
	err = pool.ForEachLabeled(ctx, label, runs, func(rctx context.Context, i int) error {
		w := 0
		for shards[w].hi <= i {
			w++
		}
		r, err := c.runInShard(rctx, &shards[w], i, seedBase+uint64(i))
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sampleSetFrom(results), nil
}

// shardTrace is one pool shard's recording. A shard runs its items
// [lo, hi) in order on one goroutine, so its first run can record and its
// later runs replay what it recorded. replayed, dropped and kept count its
// replays, its dropped recordings and the recordings its module kept.
type shardTrace struct {
	lo, hi                  int
	tr                      *interp.Trace
	replayed, dropped, kept uint64
}

// keptBytes is the size of the traces that modules compiled since the last
// ResetCompileCache keep: the experiment.traces.kept_bytes gauge.
var keptBytes atomic.Int64

func (st *shardTrace) release() {
	if st.tr != nil {
		st.tr.Release()
		st.tr = nil
	}
}

// runInShard runs item i of a collection, the seed's run, in shard st.
// Layout changes where code and data live, never what the program
// computes, so a replay under a later seed's layout yields exactly the
// full run's result (see interp.Trace). Only the compiled engine records
// and replays, and never with per-function profiling. A run takes the
// first of these that applies:
//
//  1. replay its shard's own recording;
//  2. replay the trace its module keeps, which any cell of the module may
//     have recorded;
//  3. as the first run of a shard with later runs, record raw for the
//     shard;
//  4. as its shard's only run, record compressed for the module, unless
//     another recording for it is in flight or one outgrew the trace cap
//     (interp.ClaimTrace);
//  5. run in full.
//
// A recording whose run fails, or that outgrows the trace cap, is dropped
// and the runs that would have replayed it run in full.
func (c *Compiled) runInShard(ctx context.Context, st *shardTrace, i int, seed uint64) (RunResult, error) {
	var tu traceUse
	forModule := false
	switch {
	case c.Cfg.Engine != interp.EngineCompiled || c.Cfg.Profile:
	case st.tr != nil:
		tu.replay = st.tr
	default:
		tu.replay = interp.KeptTrace(c.Module)
		switch {
		case tu.replay != nil:
		case i == st.lo && st.hi-i > 1:
			tu.capture = interp.NewTrace()
		case st.hi-st.lo == 1:
			tu.capture = interp.ClaimTrace(c.Module)
			forModule = tu.capture != nil
		}
	}
	r, _, err := c.runCtx(ctx, seed, false, tu)
	switch {
	case tu.replay != nil:
		st.replayed++
	case tu.capture == nil:
	case !tu.capture.Replayable():
		st.dropped++
		tu.capture.Release()
	case forModule:
		st.kept++
		keptBytes.Add(int64(tu.capture.Bytes()))
	default:
		st.tr = tu.capture
	}
	if i == st.hi-1 {
		st.release()
	}
	return r, err
}

// Samples runs the benchmark `runs` times with seeds seedBase, seedBase+1, …
// and returns the measured times in seconds. Runs execute in parallel on
// the default pool; see Collect for the determinism guarantee.
func (c *Compiled) Samples(runs int, seedBase uint64) ([]float64, error) {
	ss, err := c.Collect(context.Background(), runs, seedBase)
	if err != nil {
		return nil, err
	}
	return ss.Seconds, nil
}
