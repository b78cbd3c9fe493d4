package experiment

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/spec"
)

// benchEngine measures simulator throughput — retired instructions per host
// second — for one engine on the headline cell (CompileHeadline: cactusADM,
// the paper's worst-case workload), natively or under the STABILIZER
// runtime stab, one full run per iteration after a warm-up run. The native
// pair is what `szgate floor` times in CI, as interleaved pairs of runs
// with a BCa interval on their ratio; these benchmarks are the local,
// pprof-friendly view of the same runs, and the stabilized ones the view
// of the runtime boundary's cost:
//
//	go test -run xx -bench BenchmarkEngine ./internal/experiment/ -cpuprofile cpu.prof
func benchEngine(b *testing.B, eng interp.Engine, stab *core.Options) {
	cc := headlineBench(b, eng, stab)
	// One warm-up run pays the per-module lowering and compile caches.
	if _, err := cc.Run(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		r, err := cc.Run(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		instr += r.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

func BenchmarkEngineCompiled(b *testing.B) { benchEngine(b, interp.EngineCompiled, nil) }
func BenchmarkEngineWalk(b *testing.B)     { benchEngine(b, interp.EngineWalk, nil) }

// benchReplay measures replays (see interp.Trace): one compiled run of the
// headline benchmark records a trace, outside the timer, and each iteration
// replays it under a fresh seed's layout, as a pool shard's later runs do.
func benchReplay(b *testing.B, stab *core.Options) {
	cc := headlineBench(b, interp.EngineCompiled, stab)
	tr := interp.NewTrace()
	defer tr.Release()
	if _, _, err := cc.runCtx(context.Background(), 1, false, traceUse{capture: tr}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		r, _, err := cc.runCtx(context.Background(), uint64(i)+2, false, traceUse{replay: tr})
		if err != nil {
			b.Fatal(err)
		}
		instr += r.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(float64(tr.Bytes()), "trace-bytes")
}

func BenchmarkEngineReplay(b *testing.B) { benchReplay(b, nil) }

// benchKeptReplay measures replays of the compressed trace a module keeps
// (see interp.ClaimTrace): a one-run cell of the headline benchmark records
// it, outside the timer, and each iteration replays it under a fresh
// seed's layout, as the module's later one-run cells do.
func benchKeptReplay(b *testing.B, stab *core.Options) {
	cc := headlineBench(b, interp.EngineCompiled, stab)
	ctx := context.Background()
	if interp.KeptTrace(cc.Module) == nil {
		if _, err := cc.runInShard(ctx, &shardTrace{lo: 0, hi: 1}, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
	kept := interp.KeptTrace(cc.Module)
	if kept == nil {
		b.Fatal("the one-run cell kept no trace")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		r, _, err := cc.runCtx(ctx, uint64(i)+2, false, traceUse{replay: kept})
		if err != nil {
			b.Fatal(err)
		}
		instr += r.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(float64(kept.Bytes()), "kept-bytes")
}

func BenchmarkEngineKeptReplay(b *testing.B) { benchKeptReplay(b, nil) }

// BenchmarkOneRunCells collects 40 one-run cells of each suite benchmark
// at scale 0.02, -O2, from an empty compile cache, two cells at a time:
// the shape of a farm's traffic, and of perfbench farm-drain's set-up. The
// first cell of each module records the trace it keeps, and the cells
// that start after it replay it; replayed-share reports their share.
func BenchmarkOneRunCells(b *testing.B) {
	const campaigns, goroutines = 40, 2
	suite := spec.Suite()
	defer SetObs(Obs())
	scope := obs.NewScope()
	SetObs(scope)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResetCompileCache()
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := g; k < campaigns && errs[g] == nil; k += goroutines {
					for bi, bm := range suite {
						var c *Compiled
						c, errs[g] = CompileBench(bm, Config{Scale: 0.02, Level: compiler.O2})
						if errs[g] == nil {
							_, errs[g] = c.Collect(context.Background(), 1, uint64(1000*k+bi))
						}
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}
	replayed := scope.Metrics.Counter("experiment.runs.replayed").Value()
	b.ReportMetric(float64(replayed)/float64(b.N*campaigns*len(suite)), "replayed-share")
}

// headlineBench compiles the headline cell (CompileHeadline) for the
// engine benchmarks.
func headlineBench(b *testing.B, eng interp.Engine, stab *core.Options) *Compiled {
	cc, err := CompileHeadline(eng, stab)
	if err != nil {
		b.Fatal(err)
	}
	return cc
}

// stabilizedBench is full STABILIZER at the re-randomization interval
// perfbench's stabilized-levels workload uses.
var stabilizedBench = &core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: 25_000}

func BenchmarkEngineStabilizedCompiled(b *testing.B) {
	benchEngine(b, interp.EngineCompiled, stabilizedBench)
}

func BenchmarkEngineStabilizedWalk(b *testing.B) {
	benchEngine(b, interp.EngineWalk, stabilizedBench)
}

func BenchmarkEngineStabilizedReplay(b *testing.B) { benchReplay(b, stabilizedBench) }

func BenchmarkEngineStabilizedKeptReplay(b *testing.B) { benchKeptReplay(b, stabilizedBench) }

// BenchmarkCompileSuite measures compiling the 18 suite benchmarks at the
// gate's scale (0.2), once per optimization level: the compile work a
// gate-quick round (-O2) or an -O3 sweep pays before its first run. The
// source modules are built outside the timer.
func BenchmarkCompileSuite(b *testing.B) {
	var srcs []*ir.Module
	for _, bm := range spec.Suite() {
		srcs = append(srcs, bm.Build(0.2))
	}
	for _, lvl := range []compiler.OptLevel{compiler.O2, compiler.O3} {
		b.Run(strings.TrimPrefix(lvl.String(), "-"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					if _, err := compiler.Compile(src, compiler.Options{Level: lvl}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
