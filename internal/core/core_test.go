package core_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
)

// buildProgram returns a compiled, stabilized module with several functions,
// heap churn, globals, and floating point.
func buildProgram(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModuleBuilder("prog")
	gsum := mb.Global("gsum", 8)
	gtab := mb.GlobalInit("gtab", []int64{2, 7, 1, 8, 2, 8, 1, 8})

	mix := mb.Func("mix", 2)
	a, b := mix.Param(0), mix.Param(1)
	h := mix.Xor(mix.Mul(a, mix.ConstI(31)), b)
	mix.Ret(mix.Xor(h, mix.Shr(h, mix.ConstI(7))))

	fphase := mb.Func("fphase", 1)
	x := fphase.I2F(fphase.Param(0))
	y := fphase.FMul(x, fphase.ConstF(1.25))
	fphase.Ret(fphase.F2I(fphase.FAdd(y, fphase.ConstF(0.5))))

	work := mb.Func("work", 1)
	buf := work.Slot("buf", 64)
	n := work.Param(0)
	acc := work.ConstI(0)
	work.Loop(n, func(i ir.Reg) {
		idx := work.Rem(i, work.ConstI(8))
		work.StoreS(buf, 0, idx, work.Call(mix.Index(), i, idx))
		work.MovTo(acc, work.Add(acc, work.LoadS(buf, 0, idx)))
	})
	work.Ret(acc)

	main := mb.Func("main", 0)
	total := main.ConstI(0)
	main.LoopN(120, func(i ir.Reg) {
		p := main.Alloc(96)
		main.StoreH(p, 0, ir.NoReg, i)
		g := main.LoadG(gtab, 0, main.Rem(i, main.ConstI(8)))
		w := main.Call(work.Index(), main.Add(g, main.ConstI(12)))
		fv := main.Call(fphase.Index(), i)
		main.MovTo(total, main.Add(total, main.Add(w, main.Add(fv, main.LoadH(p, 0, ir.NoReg)))))
		main.Free(p)
	})
	main.StoreG(gsum, 0, ir.NoReg, total)
	main.Sink(main.LoadG(gsum, 0, ir.NoReg))
	main.Ret(ir.NoReg)

	// -O1: the -O2 inliner would collapse this small program into main,
	// leaving nothing to relocate (the paper's single-function caveat, §4).
	m, err := compiler.Compile(mb.Module(), compiler.Options{Level: compiler.O1, Stabilize: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runWith executes m under a Stabilizer with the given options and returns
// the result plus the runtime for stats inspection.
func runWith(t *testing.T, m *ir.Module, opts core.Options) (interp.Result, *core.Stabilizer) {
	t.Helper()
	as := mem.NewAddressSpace()
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(machine.DefaultConfig())
	st, err := core.New(m, mach, as, img.FuncAddrs, img.GlobalAddrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(m, interp.Options{Machine: mach, Runtime: st})
	if err != nil {
		t.Fatalf("stabilized run failed (%s): %v", opts.EnabledString(), err)
	}
	return res, st
}

// runNative executes m with the plain static runtime.
func runNative(t *testing.T, m *ir.Module) interp.Result {
	t.Helper()
	as := mem.NewAddressSpace()
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(machine.DefaultConfig())
	res, err := interp.Run(m, interp.Options{Machine: mach, Runtime: &interp.NativeRuntime{
		FuncAddrs:   img.FuncAddrs,
		GlobalAddrs: img.GlobalAddrs,
		Stack:       as.StackBase(),
		Heap:        heap.NewSegregated(as),
		Mach:        mach,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOutputUnchangedUnderEveryConfiguration(t *testing.T) {
	m := buildProgram(t)
	ref := runNative(t, m)
	configs := []core.Options{
		{Code: true, Seed: 1},
		{Stack: true, Seed: 1},
		{Heap: true, Seed: 1},
		{Code: true, Stack: true, Seed: 1},
		{Code: true, Heap: true, Stack: true, Seed: 1},
		{Code: true, Heap: true, Stack: true, Rerandomize: true, Interval: 20_000, Seed: 1},
		{Code: true, Heap: true, Stack: true, Rerandomize: true, Interval: 20_000, Seed: 2, UseTLSF: true},
	}
	for _, cfg := range configs {
		res, _ := runWith(t, m, cfg)
		if res.Output != ref.Output {
			t.Errorf("config %s rerand=%v changed output: %#x != %#x",
				cfg.EnabledString(), cfg.Rerandomize, res.Output, ref.Output)
		}
	}
}

func TestCodeRandomizationRelocatesOnDemand(t *testing.T) {
	m := buildProgram(t)
	_, st := runWith(t, m, core.Options{Code: true, Seed: 3})
	if st.Stats.Relocations == 0 || st.Stats.Traps == 0 {
		t.Fatalf("no relocations happened: %+v", st.Stats)
	}
	// Without re-randomization each called function relocates exactly once.
	if st.Stats.Relocations != st.Stats.Traps {
		t.Fatalf("traps (%d) != relocations (%d)", st.Stats.Traps, st.Stats.Relocations)
	}
	if st.Stats.Rerands != 0 {
		t.Fatal("re-randomization fired without being enabled")
	}
}

func TestFunctionsMoveToCodeHeap(t *testing.T) {
	m := buildProgram(t)
	_, st := runWith(t, m, core.Options{Code: true, Seed: 4})
	mainIdx := m.Entry()
	addr := st.Layout().Funcs[mainIdx].Code
	if addr == mem.CodeBase || addr < mem.MmapLow32 {
		t.Fatalf("main still at/near static address %#x", uint64(addr))
	}
	if !mem.Below4G(addr) {
		t.Fatalf("relocated main above 4 GiB (%#x) while low memory was available", uint64(addr))
	}
}

func TestNoRelocateFunctionsStayPut(t *testing.T) {
	m := buildProgram(t)
	i2f := m.FuncIndex("__sz_i2f")
	if i2f < 0 {
		t.Skip("program has no conversion outlines")
	}
	as := mem.NewAddressSpace()
	img, _ := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	mach := machine.New(machine.DefaultConfig())
	st, err := core.New(m, mach, as, img.FuncAddrs, img.GlobalAddrs,
		core.Options{Code: true, Rerandomize: true, Interval: 10_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(m, interp.Options{Machine: mach, Runtime: st}); err != nil {
		t.Fatal(err)
	}
	if st.Layout().Funcs[i2f].Code != img.FuncAddrs[i2f] {
		t.Fatal("NoRelocate conversion function was moved")
	}
}

func TestRerandomizationFiresAndGCs(t *testing.T) {
	m := buildProgram(t)
	res, st := runWith(t, m, core.Options{
		Code: true, Stack: true, Heap: true,
		Rerandomize: true, Interval: 10_000, Seed: 6,
	})
	minRerands := res.Cycles / 10_000 / 2 // at least half the scheduled ticks
	if st.Stats.Rerands < minRerands {
		t.Fatalf("only %d re-randomizations over %d cycles", st.Stats.Rerands, res.Cycles)
	}
	if st.Stats.Relocations <= st.Stats.Rerands {
		t.Fatalf("too few relocations (%d) for %d re-randomizations",
			st.Stats.Relocations, st.Stats.Rerands)
	}
	if st.Stats.GCFreed == 0 {
		t.Fatal("code GC never freed anything")
	}
}

func TestRerandomizationMovesFunctions(t *testing.T) {
	m := buildProgram(t)
	as := mem.NewAddressSpace()
	img, _ := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	mach := machine.New(machine.DefaultConfig())
	st, err := core.New(m, mach, as, img.FuncAddrs, img.GlobalAddrs,
		core.Options{Code: true, Rerandomize: true, Interval: 5_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(m, interp.Options{Machine: mach, Runtime: st}); err != nil {
		t.Fatal(err)
	}
	// With dozens of re-randomizations, main must have moved from wherever
	// its first relocation put it. We can't observe history directly, but
	// relocations >> functions implies movement.
	if st.Stats.Relocations < 3*uint64(len(m.Funcs)) {
		t.Fatalf("expected many relocations, got %d for %d functions",
			st.Stats.Relocations, len(m.Funcs))
	}
}

func TestStackPadsVaryAndAreAligned(t *testing.T) {
	m := buildProgram(t)
	as := mem.NewAddressSpace()
	img, _ := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	mach := machine.New(machine.DefaultConfig())
	st, err := core.New(m, mach, as, img.FuncAddrs, img.GlobalAddrs,
		core.Options{Stack: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	fn := m.Entry()
	for i := 0; i < 300; i++ {
		pad := st.BeforeCall(fn)
		if pad%16 != 0 {
			t.Fatalf("pad %d not 16-byte aligned", pad)
		}
		if pad > 255*16 {
			t.Fatalf("pad %d exceeds a page", pad)
		}
		seen[pad] = true
	}
	if len(seen) < 20 {
		t.Fatalf("only %d distinct pads in 300 calls", len(seen))
	}
}

func TestSeedsReproduceLayouts(t *testing.T) {
	m := buildProgram(t)
	r1, _ := runWith(t, m, core.AllRandomizations(42))
	r2, _ := runWith(t, m, core.AllRandomizations(42))
	if r1.Cycles != r2.Cycles {
		t.Fatalf("same seed, different cycles: %d vs %d", r1.Cycles, r2.Cycles)
	}
	r3, _ := runWith(t, m, core.AllRandomizations(43))
	if r3.Cycles == r1.Cycles {
		t.Fatal("different seeds produced identical cycle counts — randomization inert?")
	}
}

func TestDifferentSeedsDifferentLayoutCosts(t *testing.T) {
	// One-time randomization across seeds is exactly "sampling the space of
	// layouts": cycle counts must vary.
	m := buildProgram(t)
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		r, _ := runWith(t, m, core.Options{Code: true, Stack: true, Heap: true, Seed: seed})
		seen[r.Cycles] = true
	}
	if len(seen) < 6 {
		t.Fatalf("only %d distinct cycle counts across 8 layouts", len(seen))
	}
}

func TestStabilizerOverheadIsBounded(t *testing.T) {
	m := buildProgram(t)
	native := runNative(t, m)
	stab, _ := runWith(t, m, core.Options{
		Code: true, Stack: true, Heap: true, Rerandomize: true,
		Interval: 50_000, Seed: 9,
	})
	overhead := float64(stab.Cycles)/float64(native.Cycles) - 1
	if overhead < 0 {
		t.Logf("note: stabilized run faster than native (%.1f%%) — lucky layouts happen", overhead*100)
	}
	if overhead > 1.0 {
		t.Fatalf("overhead %.0f%% is far beyond the paper's <40%% worst case", overhead*100)
	}
}

func TestEnabledString(t *testing.T) {
	cases := []struct {
		o    core.Options
		want string
	}{
		{core.Options{}, "none"},
		{core.Options{Code: true}, "code"},
		{core.Options{Code: true, Stack: true}, "code.stack"},
		{core.Options{Code: true, Heap: true, Stack: true}, "code.heap.stack"},
	}
	for _, c := range cases {
		if got := c.o.EnabledString(); got != c.want {
			t.Errorf("EnabledString() = %q, want %q", got, c.want)
		}
	}
}

func TestImageMismatchRejected(t *testing.T) {
	m := buildProgram(t)
	mach := machine.New(machine.DefaultConfig())
	as := mem.NewAddressSpace()
	_, err := core.New(m, mach, as, nil, nil, core.Options{})
	if err == nil {
		t.Fatal("mismatched image accepted")
	}
}

func TestFineGrainCodeRandomization(t *testing.T) {
	m := buildProgram(t)
	ref := runNative(t, m)
	opts := core.Options{Code: true, FineGrainCode: true, Rerandomize: true, Interval: 10_000, Seed: 11}
	res, st := runWith(t, m, opts)
	if res.Output != ref.Output {
		t.Fatalf("fine-grain randomization changed output: %#x != %#x", res.Output, ref.Output)
	}
	if st.Stats.Relocations == 0 {
		t.Fatal("no relocations under fine-grain mode")
	}
	// Block offsets must exist for relocated functions and differ from the
	// static layout for at least some multi-block function.
	moved := false
	for fi, f := range m.Funcs {
		offs := st.Layout().Funcs[fi].Blocks
		if offs == nil {
			continue
		}
		if len(offs) != len(f.Blocks) {
			t.Fatalf("fn %d: %d offsets for %d blocks", fi, len(offs), len(f.Blocks))
		}
		for bi, b := range f.Blocks {
			if offs[bi] != b.Off {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("no block ever moved from its static offset")
	}
}

func TestFineGrainOffsetsDisjoint(t *testing.T) {
	m := buildProgram(t)
	_, st := runWith(t, m, core.Options{Code: true, FineGrainCode: true, Seed: 12})
	for fi, f := range m.Funcs {
		offs := st.Layout().Funcs[fi].Blocks
		if offs == nil {
			continue
		}
		// No two blocks of one copy may overlap.
		type span struct{ lo, hi uint64 }
		var spans []span
		for bi, b := range f.Blocks {
			spans = append(spans, span{offs[bi], offs[bi] + b.Size})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.lo < b.hi && b.lo < a.hi && a.lo != a.hi && b.lo != b.hi {
					t.Fatalf("fn %d: blocks %d and %d overlap: %+v %+v", fi, i, j, a, b)
				}
			}
		}
	}
}

func TestAdaptiveRerandomization(t *testing.T) {
	m := buildProgram(t)
	ref := runNative(t, m)
	opts := core.Options{
		Code: true, Stack: true, Heap: true,
		Rerandomize: true, Interval: 40_000,
		Adaptive: true, Seed: 21,
	}
	res, st := runWith(t, m, opts)
	if res.Output != ref.Output {
		t.Fatalf("adaptive mode changed output: %#x != %#x", res.Output, ref.Output)
	}
	if st.Stats.Rerands == 0 {
		t.Fatal("no re-randomizations under adaptive mode")
	}
	// Adaptive triggers are opportunistic: allow zero, but when they fire
	// they must be counted inside the rerand total.
	if st.Stats.AdaptiveTriggers > st.Stats.Rerands {
		t.Fatalf("adaptive triggers (%d) exceed rerands (%d)",
			st.Stats.AdaptiveTriggers, st.Stats.Rerands)
	}
}

func TestAdaptiveTriggersOnPhaseChange(t *testing.T) {
	// A program with a benign phase followed by a miss-heavy phase: the
	// sampler's baseline settles during phase one, so the phase-two rate
	// spike must fire an early re-randomization.
	mb := ir.NewModuleBuilder("phases")
	big := mb.Global("big", 512<<10)
	main := mb.Func("main", 0)
	acc := main.ConstI(1)
	// Phase 1: pure arithmetic, near-zero miss rate.
	main.LoopN(30_000, func(i ir.Reg) {
		main.MovTo(acc, main.Add(main.Mul(acc, main.ConstI(33)), i))
	})
	// Phase 2: a large strided sweep, suddenly miss-heavy.
	main.LoopN(30_000, func(i ir.Reg) {
		idx := main.Rem(main.Mul(i, main.ConstI(97)), main.ConstI((512<<10)/8))
		v := main.LoadG(big, 0, idx)
		main.StoreG(big, 0, idx, main.Add(v, i))
		main.MovTo(acc, main.Xor(acc, v))
	})
	main.Sink(acc)
	main.Ret(ir.NoReg)
	m, err := compiler.Compile(mb.Module(), compiler.Options{Level: compiler.O1, Stabilize: true})
	if err != nil {
		t.Fatal(err)
	}

	var triggers uint64
	for seed := uint64(0); seed < 4; seed++ {
		_, st := runWith(t, m, core.Options{
			Code: true, Rerandomize: true, Interval: 200_000,
			Adaptive: true, AdaptiveFactor: 1.3, Seed: seed,
		})
		triggers += st.Stats.AdaptiveTriggers
	}
	if triggers == 0 {
		t.Fatal("adaptive sampler missed the phase change on every seed")
	}
}

func TestHeapSubstrateOptions(t *testing.T) {
	m := buildProgram(t)
	ref := runNative(t, m)
	configs := []core.Options{
		{Heap: true, UseDieHard: true, Seed: 31},
		{Heap: true, UseTLSF: true, Seed: 31},
		{Code: true, Heap: true, Stack: true, UseDieHard: true, Rerandomize: true, Interval: 20_000, Seed: 32},
	}
	var cycles []uint64
	for _, cfg := range configs {
		res, _ := runWith(t, m, cfg)
		if res.Output != ref.Output {
			t.Errorf("substrate %+v changed output", cfg)
		}
		cycles = append(cycles, res.Cycles)
	}
	// DieHard's no-reuse policy must cost more than the shuffled TLSF on a
	// churn-heavy program.
	if cycles[0] <= cycles[1] {
		t.Logf("note: diehard (%d cycles) not slower than tlsf (%d) on this program", cycles[0], cycles[1])
	}
}

func TestStatsExposedThroughExperimentPath(t *testing.T) {
	// The runtime's Stats must reflect what happened even with every
	// feature enabled at once (fine-grain + adaptive + all randomizations).
	m := buildProgram(t)
	opts := core.Options{
		Code: true, Stack: true, Heap: true,
		Rerandomize: true, Interval: 15_000,
		FineGrainCode: true, Adaptive: true, Seed: 77,
	}
	res, st := runWith(t, m, opts)
	if res.Output == 0 {
		t.Fatal("no output")
	}
	if st.Stats.Relocations == 0 || st.Stats.Rerands == 0 {
		t.Fatalf("stats empty: %+v", st.Stats)
	}
}
