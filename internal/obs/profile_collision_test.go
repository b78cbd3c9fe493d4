package obs_test

// The tentpole acceptance test for the layout-attribution profiler: link
// two hot functions into colliding L1I sets on purpose, check that the
// profiler (a) attributes the majority of the run's L1I misses to that
// pair and (b) names the pair in the set-conflict report — then run the
// same program under STABILIZER code randomization and check the
// attributed misses collapse. This is §5.2's "layout pathology →
// microarchitectural mechanism" story made into an executable check.

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
)

// colliderModule builds: two identical hot hash functions called
// alternately from a tight loop. Which cache sets they land in is decided
// by the caller's placement, not the module.
func colliderModule() *ir.Module {
	mb := ir.NewModuleBuilder("collider")
	hot := func(name string) int32 {
		f := mb.Func(name, 1)
		v := f.Mov(f.Param(0))
		for r := 0; r < 24; r++ {
			m := f.Mul(v, f.ConstI(int64(2654435761+r*37)))
			v = f.Xor(m, f.Shr(m, f.ConstI(int64(7+r%13))))
		}
		f.Ret(v)
		return f.Index()
	}
	hotA := hot("hotA")
	hotB := hot("hotB")
	main := mb.Func("main", 0)
	acc := main.ConstI(12345)
	main.LoopN(300, func(i ir.Reg) {
		main.MovTo(acc, main.Call(hotA, main.Add(acc, i)))
		main.MovTo(acc, main.Call(hotB, acc))
	})
	main.Sink(acc)
	main.Ret(ir.NoReg)
	return mb.Module()
}

// directMappedL1I is the default machine with a direct-mapped L1I, so two
// functions one cache-period apart evict each other on every alternation.
func directMappedL1I() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.L1I.Ways = 1
	return cfg
}

func fnIndex(t *testing.T, m *ir.Module, name string) int {
	t.Helper()
	for i, f := range m.Funcs {
		if f.Name == name {
			return i
		}
	}
	t.Fatalf("function %s not found", name)
	return -1
}

// runCollider executes the collider once and profiles it. alias places
// hotB exactly one L1I period above hotA (guaranteed set collision);
// stabilize instead hands layout to STABILIZER's code randomization.
func runCollider(t *testing.T, alias, stabilize bool, seed uint64) *obs.Profile {
	t.Helper()
	cfg := directMappedL1I()
	m, err := compiler.Compile(colliderModule(), compiler.Options{Level: compiler.O0, Stabilize: stabilize})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	as := mem.NewAddressSpaceEnv(0)
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	mach := machine.New(cfg)
	mach.SetPhysicalSeed(seed)

	var rt interp.Runtime
	if stabilize {
		st, err := core.New(m, mach, as, img.FuncAddrs, img.GlobalAddrs, core.Options{Code: true, Seed: seed})
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		rt = st
	} else {
		funcAddrs := append([]mem.Addr(nil), img.FuncAddrs...)
		if alias {
			// One full L1I period apart: with Ways=1 the period is the
			// cache size, so every line of hotB evicts the same-set line
			// of hotA and vice versa.
			funcAddrs[fnIndex(t, m, "hotB")] = funcAddrs[fnIndex(t, m, "hotA")] + mem.Addr(cfg.L1I.Size)
		}
		rt = &interp.NativeRuntime{
			FuncAddrs:   funcAddrs,
			GlobalAddrs: img.GlobalAddrs,
			Stack:       as.StackBase(),
			Heap:        heap.NewTLSF(as, 1<<22),
			Mach:        mach,
		}
	}

	prof := obs.NewProfiler(m, cfg)
	if _, err := interp.Run(m, interp.Options{Machine: mach, Runtime: rt, Observer: prof}); err != nil {
		t.Fatalf("run: %v", err)
	}
	lay := rt.Layout()
	prof.CaptureLayout(func(fn int) mem.Addr { return lay.Funcs[fn].Code },
		func(g int) mem.Addr { return lay.Globals[g] })
	return prof.Profile()
}

func pairL1IMisses(t *testing.T, p *obs.Profile) uint64 {
	t.Helper()
	var sum uint64
	for i, name := range p.FuncNames {
		if name == "hotA" || name == "hotB" {
			sum += p.PerFn[i].L1IMisses
		}
	}
	return sum
}

func TestProfilerAttributesL1ISetConflict(t *testing.T) {
	p := runCollider(t, true, false, 1)

	// The aliased pair must own the majority of the run's L1I misses:
	// every alternation refetches the other function's lines.
	pair := pairL1IMisses(t, p)
	if p.Total.L1IMisses == 0 {
		t.Fatal("no L1I misses recorded at all")
	}
	if pair*2 < p.Total.L1IMisses {
		t.Errorf("aliased pair owns %d of %d L1I misses; want a majority", pair, p.Total.L1IMisses)
	}
	// 300 iterations × two functions refetching several lines each: the
	// thrash must dwarf the compulsory misses of a cold start.
	if pair < 500 {
		t.Errorf("aliased pair L1I misses = %d; want the alternation thrash (>= 500)", pair)
	}

	// The conflict report must name the colliding pair, at the top.
	conflicts := p.ConflictsFor("L1I")
	if len(conflicts) == 0 {
		t.Fatal("no L1I conflicts reported for a deliberately aliased layout")
	}
	top := conflicts[0]
	if top.A != "hotA" || top.B != "hotB" {
		t.Errorf("top L1I conflict is %s <-> %s; want hotA <-> hotB", top.A, top.B)
	}
	if top.Kind != "code" {
		t.Errorf("top L1I conflict kind = %q; want code", top.Kind)
	}
	if top.SharedSets == 0 || top.Misses == 0 {
		t.Errorf("top conflict has SharedSets=%d Misses=%d; want both nonzero", top.SharedSets, top.Misses)
	}
}

func TestCodeRandomizationBreaksConflict(t *testing.T) {
	native := runCollider(t, true, false, 1)
	nativePair := pairL1IMisses(t, native)

	// Same program under STABILIZER code randomization: layout is now a
	// random draw, and the deliberate aliasing is gone. The attributed
	// misses must collapse (compulsory misses remain).
	randomized := runCollider(t, false, true, 1)
	randPair := pairL1IMisses(t, randomized)

	if randPair*4 > nativePair {
		t.Errorf("code randomization left %d pair L1I misses vs %d aliased; want at least a 4x drop",
			randPair, nativePair)
	}
}

func TestProfileDeterministicAcrossRuns(t *testing.T) {
	a := runCollider(t, true, false, 7)
	b := runCollider(t, true, false, 7)
	if a.FoldedStacks() != b.FoldedStacks() {
		t.Error("folded stacks differ between identical runs")
	}
	if a.Total != b.Total {
		t.Errorf("profile totals differ between identical runs:\n%+v\n%+v", a.Total, b.Total)
	}
}
