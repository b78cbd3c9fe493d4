package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/spec"
)

// deepRecursion recurses about 4000 calls deep, each frame 64 bytes. Under
// STABILIZER's stack pads (0 to 4080 bytes a call) that is near the 8 MiB
// stack, so whether a run overflows depends on its seed.
func deepRecursion(float64) *ir.Module {
	mb := ir.NewModuleBuilder("deep")
	f := mb.Func("main", 0)
	g := mb.Func("down", 1)
	f.Sink(f.Call(g.Index(), f.ConstI(3990)))
	f.Ret(ir.NoReg)
	g.Slot("frame", 48)
	n := g.Param(0)
	rec, done := g.NewBlock(), g.NewBlock()
	g.Br(g.CmpLE(n, g.ConstI(0)), done, rec)
	g.SetBlock(rec)
	g.Ret(g.Add(g.Call(g.Index(), g.Sub(n, g.ConstI(1))), g.ConstI(1)))
	g.SetBlock(done)
	g.Ret(g.ConstI(0))
	return mb.Module()
}

// TestShardReplaysOnlyCompletedRecordings runs a shard's three runs item by
// item. When the first run completes, the later two replay its recording;
// when it fails (interrupted, or overflowing the stack under its seed's
// pads while the later seeds fit), nothing is kept and the later runs run
// in full. Either way each later run must equal a plain run of its seed.
func TestShardReplaysOnlyCompletedRecordings(t *testing.T) {
	// Freshly compiled modules keep no trace that a shard would replay in
	// place of recording.
	ResetCompileCache()
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	astar, _ := spec.ByName("astar")
	cc, err := CompileBench(astar, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := CompileBench(spec.Benchmark{Name: "replay-deep-recursion", Build: deepRecursion},
		Config{Level: compiler.O0, Stabilizer: &core.Options{Stack: true}})
	if err != nil {
		t.Fatal(err)
	}
	var over, fits []uint64
	for s := uint64(1); s <= 64 && (len(over) == 0 || len(fits) < 2); s++ {
		switch _, err := deep.Run(s); {
		case err == nil:
			fits = append(fits, s)
		case errors.Is(err, interp.ErrStackOverflow):
			over = append(over, s)
		default:
			t.Fatalf("seed %d: %v", s, err)
		}
	}
	if len(over) == 0 || len(fits) < 2 {
		t.Fatalf("pads never split the seeds: %d overflow, %d fit", len(over), len(fits))
	}

	for _, tc := range []struct {
		name    string
		c       *Compiled
		ctx     context.Context
		first   uint64
		later   []uint64
		replays uint64
		dropped uint64
	}{
		{"completed", cc, ctx, 1, []uint64{2, 3}, 2, 0},
		{"interrupted", cc, cancelled, 1, []uint64{2, 3}, 0, 1},
		{"stack overflow", deep, ctx, over[0], fits[:2], 0, 1},
	} {
		st := &shardTrace{lo: 0, hi: 3}
		_, err := tc.c.runInShard(tc.ctx, st, 0, tc.first)
		if (err == nil) != (tc.replays > 0) || (err != nil) != (st.tr == nil) {
			t.Fatalf("%s: first run: %v, trace kept: %v", tc.name, err, st.tr != nil)
		}
		for i, s := range tc.later {
			got, err := tc.c.runInShard(ctx, st, i+1, s)
			want, werr := tc.c.Run(s)
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: seed %d in the shard: %+v, %v; plain run: %+v, %v", tc.name, s, got, err, want, werr)
			}
		}
		if st.replayed != tc.replays || st.dropped != tc.dropped {
			t.Errorf("%s: %d runs replayed and %d recordings dropped, want %d and %d",
				tc.name, st.replayed, st.dropped, tc.replays, tc.dropped)
		}
		if st.tr != nil {
			t.Errorf("%s: the shard's last run did not release its trace", tc.name)
		}
	}
}

// TestReplayAllocatesLittle checks that a replayed cactusADM run allocates
// under a tenth of the bytes a full run does: a replay builds no register
// files, globals or heap-object storage.
func TestReplayAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled machines and arenas at random")
	}
	b, _ := spec.ByName("cactusADM")
	cc, err := CompileBench(b, Config{Scale: 0.2, Level: compiler.O2, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := interp.NewTrace()
	defer tr.Release()
	if _, _, err := cc.runCtx(ctx, 1, false, traceUse{capture: tr}); err != nil {
		t.Fatal(err)
	}
	bytesPerRun := func(tu traceUse) uint64 {
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for s := uint64(2); s < 2+runs; s++ {
			if _, _, err := cc.runCtx(ctx, s, false, tu); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	full, replay := bytesPerRun(runFull), bytesPerRun(traceUse{replay: tr})
	t.Logf("bytes per run: full %d, replay %d", full, replay)
	if replay*10 >= full {
		t.Fatalf("a replay allocates %d bytes, a full run %d: want under a tenth", replay, full)
	}
}

// oneRunCell runs seed as a cell's only run, in a one-run shard.
func oneRunCell(ctx context.Context, c *Compiled, seed uint64) (RunResult, *shardTrace, error) {
	st := &shardTrace{lo: 0, hi: 1}
	r, err := c.runInShard(ctx, st, 0, seed)
	return r, st, err
}

// TestKeptTraceServesEveryCellOfItsModule records a one-run cell for its
// module and replays that trace in cells that differ from it in every
// Config field the compile key leaves out: the seed, EnvSize,
// RandomLinkOrder, MaxSteps, Noise and, under STABILIZER, the runtime's
// options, DieHard and adaptive re-randomization included. Each replay
// must equal the full run of its cell; a MaxSteps below the run's length
// must stop the replay with the full run's error. Profiled and walk-engine
// cells never replay.
func TestKeptTraceServesEveryCellOfItsModule(t *testing.T) {
	ResetCompileCache()
	ctx := context.Background()
	b := subset(t, "astar")[0]
	full := core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: 25_000}
	for _, tc := range []struct {
		name     string
		base     Config
		variants []func(*Config)
	}{
		{"native", Config{Scale: testScale, Level: compiler.O2}, []func(*Config){
			func(c *Config) { c.EnvSize = 12_345 },
			func(c *Config) { c.RandomLinkOrder = true },
			func(c *Config) { c.Noise = -1 },
			func(c *Config) { c.Noise = 0.05 },
			func(c *Config) { c.MaxSteps = 20_000 },
		}},
		{"stabilized", Config{Scale: testScale, Level: compiler.O2, Stabilizer: &full}, []func(*Config){
			func(c *Config) { c.Stabilizer = &core.Options{Stack: true} },
			func(c *Config) { c.Stabilizer = &core.Options{Code: true, Heap: true, UseDieHard: true} },
			func(c *Config) {
				c.Stabilizer = &core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true,
					Interval: 40_000, Adaptive: true, AdaptiveFactor: 1.05}
			},
			func(c *Config) {
				c.Stabilizer = &core.Options{Code: true, FineGrainCode: true, UseTLSF: true, Heap: true}
			},
			func(c *Config) { c.EnvSize, c.RandomLinkOrder = 4096, true },
			func(c *Config) { c.MaxSteps = 20_000 },
		}},
	} {
		rec, err := CompileBench(b, tc.base)
		if err != nil {
			t.Fatal(err)
		}
		if _, st, err := oneRunCell(ctx, rec, 1); err != nil || st.kept != 1 || interp.KeptTrace(rec.Module) == nil {
			t.Fatalf("%s: the one-run cell kept %d traces: %v", tc.name, st.kept, err)
		}
		kept := interp.KeptTrace(rec.Module)
		variants := append([]func(*Config){func(*Config) {}}, tc.variants...)
		for vi, vary := range variants {
			cfg := tc.base
			vary(&cfg)
			c, err := CompileBench(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.Module != rec.Module {
				t.Fatalf("%s: variant %d compiled a module of its own", tc.name, vi)
			}
			for _, seed := range []uint64{2, 1000 + uint64(vi)} {
				got, st, err := oneRunCell(ctx, c, seed)
				want, werr := c.Run(seed)
				name := fmt.Sprintf("%s: variant %d, seed %d", tc.name, vi, seed)
				if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: replay %+v, %v; full run %+v, %v", name, got, err, want, werr)
				}
				if st.replayed != 1 || st.kept != 0 || st.dropped != 0 {
					t.Fatalf("%s: %d replays, %d kept, %d dropped; want a replay", name, st.replayed, st.kept, st.dropped)
				}
				if cfg.MaxSteps != 0 && !errors.Is(err, interp.ErrMaxSteps) {
					t.Fatalf("%s: a replay past MaxSteps returned %v", name, err)
				}
			}
		}
		if interp.KeptTrace(rec.Module) != kept {
			t.Fatalf("%s: the module's kept trace changed", tc.name)
		}
		for _, vary := range []func(*Config){
			func(c *Config) { c.Profile = true },
			func(c *Config) { c.Engine = interp.EngineWalk },
		} {
			cfg := tc.base
			vary(&cfg)
			c, err := CompileBench(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, st, err := oneRunCell(ctx, c, 3); err != nil || st.replayed != 0 || st.kept != 0 {
				t.Fatalf("%s: a profiled or walk cell replayed %d runs, kept %d: %v", tc.name, st.replayed, st.kept, err)
			}
		}
	}
}

// TestConcurrentOneRunCellsRecordOnce collects one-run cells of one module
// from two goroutines. Only one recording for a module may be in flight,
// and once it is kept no other starts, so the module records exactly once;
// the cells that start meanwhile run in full and the later ones replay.
// Every cell must equal its full run. Run it under -race as well.
func TestConcurrentOneRunCellsRecordOnce(t *testing.T) {
	ResetCompileCache()
	scope := obs.NewScope()
	SetObs(scope)
	defer SetObs(nil)
	c, err := CompileBench(subset(t, "mcf")[0], Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	const cells = 6
	got := make([][]RunResult, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				ss, err := c.Collect(context.Background(), 1, uint64(100*g+i))
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], ss.Results[0])
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, r := range got[g] {
			if want, err := c.Run(uint64(100*g + i)); err != nil || !reflect.DeepEqual(r, want) {
				t.Fatalf("goroutine %d, cell %d: %+v; full run %+v, %v", g, i, r, want, err)
			}
		}
	}
	kept := scope.Metrics.Counter("experiment.traces.kept").Value()
	replayed := scope.Metrics.Counter("experiment.runs.replayed").Value()
	if kept != 1 || replayed == 0 || replayed > 2*cells-1 {
		t.Fatalf("%d module recordings and %d replays over %d one-run cells; want 1 and 1..%d",
			kept, replayed, 2*cells, 2*cells-1)
	}
	if g := scope.Metrics.Gauge("experiment.traces.kept_bytes").Value(); g < float64(interp.KeptTrace(c.Module).Bytes()) {
		t.Fatalf("kept-bytes gauge reads %v, below the kept trace's %d bytes", g, interp.KeptTrace(c.Module).Bytes())
	}
}

// spreadStores stores to a 1 MiB heap object at scattered offsets, eight
// stores an iteration, so each store records a multi-byte operand.
func spreadStores(iters int64) func(float64) *ir.Module {
	return func(float64) *ir.Module {
		mb := ir.NewModuleBuilder("spread")
		f := mb.Func("main", 0)
		p := f.Alloc(1 << 20)
		f.LoopN(iters, func(i ir.Reg) {
			for k := int64(1); k <= 8; k++ {
				idx := f.And(f.Mul(f.Add(i, f.ConstI(k)), f.ConstI(40503)), f.ConstI(1<<17-1))
				f.StoreH(p, 0, idx, i)
			}
		})
		f.Sink(f.LoadH(p, 0, ir.NoReg))
		f.Ret(ir.NoReg)
		return mb.Module()
	}
}

// TestModuleRecordingPastCapMarksModule runs one-run cells of a program
// whose trace outgrows interp.TraceCap by half. An interrupted recording
// leaves no mark, so the next cell records again; that recording outgrows
// the cap and marks the module, so the cells after it run in full without
// recording.
func TestModuleRecordingPastCapMarksModule(t *testing.T) {
	ResetCompileCache()
	ctx := context.Background()
	// The trace grows linearly with the iteration count: extrapolate from
	// two small runs.
	var size [2]float64
	iters := [2]int64{1000, 2000}
	for i, n := range iters {
		c, err := CompileBench(spec.Benchmark{Name: fmt.Sprintf("spread-%d", n), Build: spreadStores(n)}, Config{Level: compiler.O2})
		if err != nil {
			t.Fatal(err)
		}
		tr := interp.NewTrace()
		if _, _, err := c.runCtx(ctx, 1, false, traceUse{capture: tr}); err != nil || !tr.Replayable() {
			t.Fatalf("recording %d iterations: %v", n, err)
		}
		size[i] = float64(tr.Bytes())
		tr.Release()
	}
	n := int64(1.5 * float64(interp.TraceCap) / ((size[1] - size[0]) / float64(iters[1]-iters[0])))
	c, err := CompileBench(spec.Benchmark{Name: "spread-past-cap", Build: spreadStores(n)}, Config{Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for i, tc := range []struct {
		name    string
		ctx     context.Context
		dropped uint64
	}{
		{"interrupted", cancelled, 1},
		{"past the cap", ctx, 1},
		{"marked", ctx, 0},
		{"still marked", ctx, 0},
	} {
		got, st, err := oneRunCell(tc.ctx, c, uint64(i))
		if st.dropped != tc.dropped || st.kept != 0 || st.replayed != 0 {
			t.Fatalf("%s: %d dropped, %d kept, %d replayed; want %d dropped", tc.name, st.dropped, st.kept, st.replayed, tc.dropped)
		}
		if tc.ctx == cancelled {
			if err == nil {
				t.Fatalf("%s: the cell completed", tc.name)
			}
			continue
		}
		if want, werr := c.Run(uint64(i)); err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v, %v; full run %+v, %v", tc.name, got, err, want, werr)
		}
	}
	if interp.KeptTrace(c.Module) != nil {
		t.Fatal("a module whose recording outgrew the cap keeps a trace")
	}
}
