package compiler_test

import (
	"testing"
	"testing/quick"

	"repro/internal/compiler"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rng"
)

// runNative compiles nothing further: it links m with the identity order and
// executes it on a fresh machine, returning the result.
func runNative(t *testing.T, m *ir.Module) interp.Result {
	t.Helper()
	as := mem.NewAddressSpace()
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	mach := machine.New(machine.DefaultConfig())
	rt := &interp.NativeRuntime{
		FuncAddrs:   img.FuncAddrs,
		GlobalAddrs: img.GlobalAddrs,
		Stack:       as.StackBase(),
		Heap:        heap.NewSegregated(as),
		Mach:        mach,
	}
	res, err := interp.Run(m, interp.Options{Machine: mach, Runtime: rt})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// compileAndRun compiles src at the given level and runs it.
func compileAndRun(t *testing.T, src *ir.Module, level compiler.OptLevel, stabilize bool) interp.Result {
	t.Helper()
	m, err := compiler.Compile(src, compiler.Options{Level: level, Stabilize: stabilize})
	if err != nil {
		t.Fatalf("compile %v: %v", level, err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("validate after %v: %v", level, err)
	}
	return runNative(t, m)
}

// testProgram builds a program exercising arithmetic, loops, calls, globals,
// stack arrays, heap objects, and floating point — enough surface for every
// pass to have something to do.
func testProgram() *ir.Module {
	mb := ir.NewModuleBuilder("testprog")
	acc := mb.Global("acc", 8)
	table := mb.GlobalInit("table", []int64{3, 1, 4, 1, 5, 9, 2, 6})
	dead := mb.Global("dead", 64) // never referenced: DeadGlobals target

	// A small helper: hash(x, k) — inlining target; k is always 13 at every
	// call site (IPConstProp target).
	hash := mb.Func("hash", 2)
	x, k := hash.Param(0), hash.Param(1)
	h := hash.Mul(x, hash.ConstI(2654435761))
	h2 := hash.Xor(h, hash.Shr(h, hash.ConstI(13)))
	hash.Ret(hash.Add(h2, k))

	// A float kernel with constants and conversions.
	fk := mb.Func("fkernel", 1)
	v := fk.I2F(fk.Param(0))
	scaled := fk.FMul(v, fk.ConstF(1.5))
	shifted := fk.FAdd(scaled, fk.ConstF(0.25))
	fk.Ret(fk.F2I(fk.FMul(shifted, shifted)))

	// A function with a promotable scalar slot and an array slot.
	work := mb.Func("work", 1)
	tmp := work.Slot("tmp", 8)
	arr := work.Slot("arr", 128)
	n := work.Param(0)
	work.StoreS(tmp, 0, ir.NoReg, work.ConstI(0))
	work.Loop(n, func(i ir.Reg) {
		// Loop-invariant computation for LICM to hoist.
		inv := work.Mul(work.ConstI(7), work.ConstI(11))
		idx := work.Rem(i, work.ConstI(16))
		work.StoreS(arr, 0, idx, work.Add(i, inv))
		cur := work.LoadS(tmp, 0, ir.NoReg)
		elem := work.LoadS(arr, 0, idx)
		hv := work.Call(hash.Index(), elem, work.ConstI(13))
		work.StoreS(tmp, 0, ir.NoReg, work.Add(cur, hv))
	})
	work.Ret(work.LoadS(tmp, 0, ir.NoReg))

	main := mb.Func("main", 0)
	total := main.ConstI(0)
	main.LoopN(20, func(i ir.Reg) {
		p := main.Alloc(64)
		main.StoreH(p, 0, ir.NoReg, i)
		e := main.LoadG(table, 0, main.Rem(i, main.ConstI(8)))
		w := main.Call(work.Index(), main.Add(e, main.ConstI(4)))
		fv := main.Call(fk.Index(), i)
		hp := main.LoadH(p, 0, ir.NoReg)
		sum := main.Add(main.Add(w, fv), hp)
		main.MovTo(total, main.Add(total, sum))
		main.Free(p)
	})
	main.StoreG(acc, 0, ir.NoReg, total)
	main.Sink(main.LoadG(acc, 0, ir.NoReg))
	main.Ret(ir.NoReg)
	_ = dead
	return mb.Module()
}

func TestPipelinesPreserveSemantics(t *testing.T) {
	src := testProgram()
	ref := compileAndRun(t, src, compiler.O0, false)
	if ref.Output == 0 {
		t.Fatal("reference output is zero; program under-constrained")
	}
	for _, level := range []compiler.OptLevel{compiler.O1, compiler.O2, compiler.O3} {
		for _, stab := range []bool{false, true} {
			got := compileAndRun(t, src, level, stab)
			if got.Output != ref.Output {
				t.Errorf("%v stabilize=%v changed output: %#x != %#x", level, stab, got.Output, ref.Output)
			}
		}
	}
}

func TestHigherLevelsRetireFewerInstructions(t *testing.T) {
	src := testProgram()
	o0 := compileAndRun(t, src, compiler.O0, false)
	o1 := compileAndRun(t, src, compiler.O1, false)
	o2 := compileAndRun(t, src, compiler.O2, false)
	if o1.Instructions >= o0.Instructions {
		t.Errorf("-O1 (%d instrs) not better than -O0 (%d)", o1.Instructions, o0.Instructions)
	}
	if o2.Instructions >= o1.Instructions {
		t.Errorf("-O2 (%d instrs) not better than -O1 (%d)", o2.Instructions, o1.Instructions)
	}
}

func TestCompileDoesNotMutateSource(t *testing.T) {
	src := testProgram()
	before := src.String()
	if _, err := compiler.Compile(src, compiler.Options{Level: compiler.O3, Stabilize: true}); err != nil {
		t.Fatal(err)
	}
	if src.String() != before {
		t.Fatal("Compile mutated its input module")
	}
}

func TestConstFoldFoldsChain(t *testing.T) {
	mb := ir.NewModuleBuilder("cf")
	f := mb.Func("main", 0)
	a := f.ConstI(6)
	b := f.ConstI(7)
	c := f.Mul(a, b)
	d := f.Add(c, f.ConstI(0))
	f.Sink(d)
	f.Ret(ir.NoReg)
	m := mb.Module()
	compiler.ConstFold{}.Run(m)
	compiler.DCE{}.Run(m)
	ir.ComputeSizes(m)
	// After folding + DCE only ConstI(42) and the sink should remain.
	instrs := m.Funcs[0].Blocks[0].Instrs
	if len(instrs) != 2 {
		t.Fatalf("got %d instructions after fold+dce, want 2:\n%s", len(instrs), m)
	}
	if instrs[0].Op != ir.OpConstI || instrs[0].Imm != 42 {
		t.Fatalf("folded constant wrong: %+v", instrs[0])
	}
}

func TestStrengthReduction(t *testing.T) {
	mb := ir.NewModuleBuilder("sr")
	f := mb.Func("main", 1)
	eight := f.ConstI(8)
	f.Sink(f.Mul(f.Param(0), eight))
	f.Ret(ir.NoReg)
	m := mb.Module()
	ref := m.Clone()
	compiler.ConstFold{}.Run(m)
	found := false
	for _, in := range m.Funcs[0].Blocks[0].Instrs {
		if in.Op == ir.OpShl {
			found = true
		}
		if in.Op == ir.OpMul {
			t.Fatal("multiply by 8 not strength-reduced")
		}
	}
	if !found {
		t.Fatal("no shift emitted")
	}
	_ = ref
}

func TestDCEKeepsSideEffects(t *testing.T) {
	mb := ir.NewModuleBuilder("dce")
	g := mb.Global("g", 8)
	f := mb.Func("main", 0)
	v := f.ConstI(9)
	f.StoreG(g, 0, ir.NoReg, v)
	f.ConstI(1234) // dead
	f.Sink(f.LoadG(g, 0, ir.NoReg))
	f.Ret(ir.NoReg)
	m := mb.Module()
	compiler.DCE{}.Run(m)
	for _, in := range m.Funcs[0].Blocks[0].Instrs {
		if in.Op == ir.OpConstI && in.Imm == 1234 {
			t.Fatal("dead constant survived DCE")
		}
	}
	// Store, load, sink must survive.
	ops := map[ir.Op]bool{}
	for _, in := range m.Funcs[0].Blocks[0].Instrs {
		ops[in.Op] = true
	}
	for _, want := range []ir.Op{ir.OpStoreG, ir.OpLoadG, ir.OpSink} {
		if !ops[want] {
			t.Fatalf("%v removed by DCE", want)
		}
	}
}

func TestLocalCSEEliminatesRecomputation(t *testing.T) {
	mb := ir.NewModuleBuilder("cse")
	f := mb.Func("main", 2)
	a, b := f.Param(0), f.Param(1)
	x := f.Add(a, b)
	y := f.Add(a, b) // redundant
	f.Sink(f.Mul(x, y))
	f.Ret(ir.NoReg)
	m := mb.Module()
	compiler.LocalCSE{}.Run(m)
	adds := 0
	for _, in := range m.Funcs[0].Blocks[0].Instrs {
		if in.Op == ir.OpAdd {
			adds++
		}
	}
	if adds != 1 {
		t.Fatalf("CSE left %d adds, want 1", adds)
	}
}

func TestCSEHonorsReassignment(t *testing.T) {
	// If an operand register is overwritten between two identical
	// expressions, the second must NOT be replaced.
	mb := ir.NewModuleBuilder("cse2")
	ga := mb.GlobalInit("ga", []int64{17})
	gb := mb.GlobalInit("gb", []int64{23})
	f := mb.Func("main", 0)
	a, b := f.LoadG(ga, 0, ir.NoReg), f.LoadG(gb, 0, ir.NoReg)
	x := f.Add(a, b)
	f.MovTo(a, f.ConstI(100)) // clobber a
	y := f.Add(a, b)          // different value now
	f.Sink(x)
	f.Sink(y)
	f.Ret(ir.NoReg)
	src := mb.Module()
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	opt := runNative(t, mustCompile(t, src, compiler.O2))
	if ref.Output != opt.Output {
		t.Fatalf("CSE broke reassignment semantics: %#x != %#x", opt.Output, ref.Output)
	}
}

func mustCompile(t *testing.T, src *ir.Module, level compiler.OptLevel) *ir.Module {
	t.Helper()
	m, err := compiler.Compile(src, compiler.Options{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLICMHoistsInvariant(t *testing.T) {
	mb := ir.NewModuleBuilder("licm")
	gn := mb.GlobalInit("n", []int64{10})
	f := mb.Func("main", 0)
	sum := f.ConstI(0)
	f.Loop(f.LoadG(gn, 0, ir.NoReg), func(i ir.Reg) {
		inv := f.Mul(f.ConstI(123), f.ConstI(456)) // invariant
		f.MovTo(sum, f.Add(sum, f.Add(i, inv)))
	})
	f.Sink(sum)
	f.Ret(ir.NoReg)
	src := mb.Module()

	// Semantics preserved.
	m := src.Clone()
	compiler.LICM{}.Run(m)
	m.Finalize()
	ir.ComputeSizes(m)
	if err := m.Validate(); err != nil {
		t.Fatalf("LICM output invalid: %v", err)
	}
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	got := runNative(t, m)
	if ref.Output != got.Output {
		t.Fatalf("LICM changed output: %#x != %#x", got.Output, ref.Output)
	}

	// And fewer dynamic instructions than the unoptimized build.
	if got.Instructions >= ref.Instructions {
		t.Fatalf("LICM did not reduce instructions: %d >= %d", got.Instructions, ref.Instructions)
	}
}

func TestInlineSmallCallee(t *testing.T) {
	mb := ir.NewModuleBuilder("inline")
	sq := mb.Func("sq", 1)
	sq.Ret(sq.Mul(sq.Param(0), sq.Param(0)))
	f := mb.Func("main", 0)
	s := f.ConstI(0)
	f.LoopN(10, func(i ir.Reg) {
		f.MovTo(s, f.Add(s, f.Call(sq.Index(), i)))
	})
	f.Sink(s)
	f.Ret(ir.NoReg)
	src := mb.Module()
	ir.ComputeSizes(src)

	m := src.Clone()
	compiler.Inline{Threshold: 256, MaxGrowth: 8192}.Run(m)
	if err := m.Validate(); err != nil {
		t.Fatalf("inline output invalid: %v", err)
	}
	calls := 0
	for _, b := range m.Funcs[m.FuncIndex("main")].Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls++
			}
		}
	}
	if calls != 0 {
		t.Fatalf("%d calls remain after inlining", calls)
	}
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	m.Finalize()
	ir.ComputeSizes(m)
	got := runNative(t, m)
	if ref.Output != got.Output {
		t.Fatalf("inlining changed output: %#x != %#x", got.Output, ref.Output)
	}
}

func TestInlineRefusesRecursion(t *testing.T) {
	mb := ir.NewModuleBuilder("rec")
	fac := mb.Func("fac", 1)
	n := fac.Param(0)
	res := fac.ConstI(1)
	cond := fac.CmpLE(n, fac.ConstI(1))
	fac.If(cond, nil, func() {
		sub := fac.Sub(n, fac.ConstI(1))
		fac.MovTo(res, fac.Mul(n, fac.Call(fac.Index(), sub)))
	})
	fac.Ret(res)
	f := mb.Func("main", 0)
	f.Sink(f.Call(fac.Index(), f.ConstI(10)))
	f.Ret(ir.NoReg)
	m := mb.Module()
	ir.ComputeSizes(m)
	compiler.Inline{Threshold: 10000, MaxGrowth: 100000}.Run(m)
	if err := m.Validate(); err != nil {
		t.Fatalf("inline output invalid: %v", err)
	}
	// The recursive call inside fac must survive.
	found := false
	for _, b := range m.Funcs[m.FuncIndex("fac")].Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Sym == int32(m.FuncIndex("fac")) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("recursion was inlined away")
	}
}

func TestSRAPromotesScalarSlot(t *testing.T) {
	mb := ir.NewModuleBuilder("sra")
	f := mb.Func("main", 0)
	s := f.Slot("scalar", 8)
	arr := f.Slot("arr", 64)
	f.StoreS(s, 0, ir.NoReg, f.ConstI(5))
	f.StoreS(arr, 8, ir.NoReg, f.ConstI(6)) // offset access: not promotable
	v := f.LoadS(s, 0, ir.NoReg)
	w := f.LoadS(arr, 8, ir.NoReg)
	f.Sink(f.Add(v, w))
	f.Ret(ir.NoReg)
	src := mb.Module()

	m := src.Clone()
	compiler.SRA{}.Run(m)
	if err := m.Validate(); err != nil {
		t.Fatalf("SRA output invalid: %v", err)
	}
	if len(m.Funcs[0].Slots) != 1 {
		t.Fatalf("SRA left %d slots, want 1 (the array)", len(m.Funcs[0].Slots))
	}
	ir.ComputeSizes(m)
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	got := runNative(t, m)
	if ref.Output != got.Output {
		t.Fatalf("SRA changed output: %#x != %#x", got.Output, ref.Output)
	}
}

func TestDeadGlobalsRenumbers(t *testing.T) {
	mb := ir.NewModuleBuilder("dg")
	dead := mb.Global("dead", 128)
	live := mb.Global("live", 8)
	f := mb.Func("main", 0)
	f.StoreG(live, 0, ir.NoReg, f.ConstI(77))
	f.Sink(f.LoadG(live, 0, ir.NoReg))
	f.Ret(ir.NoReg)
	_ = dead
	src := mb.Module()

	m := src.Clone()
	compiler.DeadGlobals{}.Run(m)
	if len(m.Globals) != 1 || m.Globals[0].Name != "live" {
		t.Fatalf("globals after pass: %+v", m.Globals)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("renumbering broke references: %v", err)
	}
	ir.ComputeSizes(m)
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	got := runNative(t, m)
	if ref.Output != got.Output {
		t.Fatalf("DeadGlobals changed output: %#x != %#x", got.Output, ref.Output)
	}
}

func TestFPConstToGlobal(t *testing.T) {
	mb := ir.NewModuleBuilder("fp")
	f := mb.Func("main", 0)
	a := f.ConstF(3.25)
	b := f.ConstF(3.25) // same constant: shares the global
	z := f.ConstF(0)    // zero stays an immediate
	f.SinkF(f.FAdd(f.FAdd(a, b), z))
	f.Ret(ir.NoReg)
	src := mb.Module()

	m := src.Clone()
	compiler.FPConstToGlobal{}.Run(m)
	if len(m.Globals) != 1 {
		t.Fatalf("expected 1 pooled fp-constant global, got %d", len(m.Globals))
	}
	loads, consts := 0, 0
	for _, in := range m.Funcs[0].Blocks[0].Instrs {
		switch in.Op {
		case ir.OpLoadGF:
			loads++
		case ir.OpConstF:
			consts++
		}
	}
	if loads != 2 || consts != 1 {
		t.Fatalf("loads=%d consts=%d, want 2 loads and the zero constant", loads, consts)
	}
	m.Finalize()
	ir.ComputeSizes(m)
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	got := runNative(t, m)
	if ref.Output != got.Output {
		t.Fatalf("FPConstToGlobal changed output: %#x != %#x", got.Output, ref.Output)
	}
}

func TestOutlineConversions(t *testing.T) {
	mb := ir.NewModuleBuilder("conv")
	f := mb.Func("main", 0)
	v := f.I2F(f.ConstI(41))
	f.Sink(f.F2I(f.FAdd(v, f.ConstF(1))))
	f.Ret(ir.NoReg)
	src := mb.Module()

	m := src.Clone()
	compiler.OutlineConversions{}.Run(m)
	if err := m.Validate(); err != nil {
		t.Fatalf("outlined module invalid: %v", err)
	}
	i2f := m.FuncIndex("__sz_i2f")
	f2i := m.FuncIndex("__sz_f2i")
	if i2f < 0 || f2i < 0 {
		t.Fatal("conversion outlines missing")
	}
	if !m.Funcs[i2f].NoRelocate || !m.Funcs[f2i].NoRelocate {
		t.Fatal("conversion outlines must be NoRelocate")
	}
	ir.ComputeSizes(m)
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	got := runNative(t, m)
	if ref.Output != got.Output {
		t.Fatalf("outlining changed output: %#x != %#x", got.Output, ref.Output)
	}
}

func TestLinkOrderChangesAddresses(t *testing.T) {
	src := testProgram()
	m := mustCompile(t, src, compiler.O2)
	img1, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), mem.NewAddressSpace())
	if err != nil {
		t.Fatal(err)
	}
	order2 := compiler.RandomOrder(len(m.Funcs), rng.NewMarsaglia(99))
	img2, err := compiler.Link(m, order2, mem.NewAddressSpace())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range img1.FuncAddrs {
		if img1.FuncAddrs[i] != img2.FuncAddrs[i] {
			same = false
		}
	}
	if same {
		t.Fatal("permuted link order left all function addresses unchanged")
	}
}

func TestLinkRejectsBadOrder(t *testing.T) {
	src := testProgram()
	m := mustCompile(t, src, compiler.O0)
	if _, err := compiler.Link(m, []int{0}, mem.NewAddressSpace()); err == nil {
		t.Fatal("short order accepted")
	}
	bad := compiler.DefaultOrder(len(m.Funcs))
	bad[0] = bad[1] // duplicate
	if _, err := compiler.Link(m, bad, mem.NewAddressSpace()); err == nil {
		t.Fatal("duplicate order accepted")
	}
}

func TestLinkOrderPreservesSemantics(t *testing.T) {
	// Output must be identical under any link order (only cycles differ).
	src := testProgram()
	m := mustCompile(t, src, compiler.O2)
	base := runNative(t, m)
	f := func(seed uint64) bool {
		as := mem.NewAddressSpace()
		img, err := compiler.Link(m, compiler.RandomOrder(len(m.Funcs), rng.NewMarsaglia(seed)), as)
		if err != nil {
			return false
		}
		mach := machine.New(machine.DefaultConfig())
		rt := &interp.NativeRuntime{
			FuncAddrs:   img.FuncAddrs,
			GlobalAddrs: img.GlobalAddrs,
			Stack:       as.StackBase(),
			Heap:        heap.NewSegregated(as),
			Mach:        mach,
		}
		res, err := interp.Run(m, interp.Options{Machine: mach, Runtime: rt})
		return err == nil && res.Output == base.Output
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestCompilationIsDeterministic(t *testing.T) {
	src := testProgram()
	a := mustCompile(t, src, compiler.O3)
	b := mustCompile(t, src, compiler.O3)
	if a.String() != b.String() {
		t.Fatal("two compilations of the same module differ — layout would be nondeterministic")
	}
}

// TestInlineChecksBudgetAfterSplice pins when Inline's growth budget is
// checked: after each splice. A caller already over MaxGrowth still gets its
// first eligible call inlined, and no more.
func TestInlineChecksBudgetAfterSplice(t *testing.T) {
	mb := ir.NewModuleBuilder("budget")
	sq := mb.Func("sq", 1)
	sq.Ret(sq.Mul(sq.Param(0), sq.Param(0)))
	f := mb.Func("main", 0)
	f.Sink(f.Add(f.Call(sq.Index(), f.ConstI(3)), f.Call(sq.Index(), f.ConstI(4))))
	f.Ret(ir.NoReg)
	m := mb.Module()
	ir.ComputeSizes(m)
	const budget = 16
	if size := m.Funcs[f.Index()].Size; size <= budget {
		t.Fatalf("main is %d bytes; it must start over the %d-byte budget", size, budget)
	}
	compiler.Inline{Threshold: 256, MaxGrowth: budget}.Run(m)
	calls := 0
	for _, b := range m.Funcs[f.Index()].Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls++
			}
		}
	}
	if calls != 1 {
		t.Fatalf("%d calls left in main, want 1 (one splice, then the budget stops it)", calls)
	}
}

// TestCSESelfOverwrite covers an instruction that overwrites one of its own
// operands, a = a + b: a following a + b reads the new a, so it is a
// different value and must not be replaced.
func TestCSESelfOverwrite(t *testing.T) {
	mb := ir.NewModuleBuilder("cse3")
	ga := mb.GlobalInit("ga", []int64{17})
	gb := mb.GlobalInit("gb", []int64{23})
	f := mb.Func("main", 0)
	a, b := f.LoadG(ga, 0, ir.NoReg), f.LoadG(gb, 0, ir.NoReg)
	f.Add(a, b) // rewritten below to a = a + b
	f.Sink(f.Add(a, b))
	f.Ret(ir.NoReg)
	src := mb.Module()
	for i, in := range src.Funcs[0].Blocks[0].Instrs {
		if in.Op == ir.OpAdd {
			src.Funcs[0].Blocks[0].Instrs[i].Dst = a
			break
		}
	}
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	opt := runNative(t, mustCompile(t, src, compiler.O1))
	if ref.Output != opt.Output {
		t.Fatalf("CSE replaced a + b after a = a + b: %#x != %#x", opt.Output, ref.Output)
	}
}

// TestLICMHoistsFromEntryLoop covers a loop whose header is the entry
// block: the preheader is built, then swapped into block 0.
func TestLICMHoistsFromEntryLoop(t *testing.T) {
	mb := ir.NewModuleBuilder("licm0")
	g := mb.Func("countdown", 2)
	n, k := g.Param(0), g.Param(1)
	exit := g.NewBlock()
	step := g.Add(k, k) // invariant: its operands are parameters
	g.MovTo(n, g.Sub(n, step))
	g.Br(g.CmpLE(n, g.ConstI(0)), exit, 0)
	g.SetBlock(exit)
	g.Ret(n)
	f := mb.Func("main", 0)
	f.Sink(f.Call(g.Index(), f.ConstI(11), f.ConstI(1)))
	f.Ret(ir.NoReg)
	src := mb.Module()

	m := src.Clone()
	compiler.LICM{}.Run(m)
	m.Finalize()
	ir.ComputeSizes(m)
	if err := m.Validate(); err != nil {
		t.Fatalf("LICM output invalid: %v", err)
	}
	cd := m.Funcs[g.Index()]
	hoisted := false
	for _, in := range cd.Blocks[0].Instrs {
		hoisted = hoisted || (in.Op == ir.OpAdd && in.A == k && in.B == k)
	}
	if len(cd.Blocks) != 3 || !hoisted {
		t.Fatalf("entry loop: %d blocks, invariant in block 0: %v; want a preheader in block 0 holding it", len(cd.Blocks), hoisted)
	}
	ref := runNative(t, mustCompile(t, src, compiler.O0))
	if got := runNative(t, m); got.Output != ref.Output {
		t.Fatalf("LICM changed output: %#x != %#x", got.Output, ref.Output)
	}
}

// TestGlobalCSEKeepsEveryDefinition covers an expression computed in two
// blocks, neither dominating the other. Each later recomputation must reuse
// the definition that dominates it: the first one recorded for one use, the
// second for the other.
func TestGlobalCSEKeepsEveryDefinition(t *testing.T) {
	mb := ir.NewModuleBuilder("gcse")
	g := mb.GlobalInit("g", []int64{5, 7, 1})
	f := mb.Func("main", 0)
	a, b, c := f.LoadG(g, 0, ir.NoReg), f.LoadG(g, 8, ir.NoReg), f.LoadG(g, 16, ir.NoReg)
	e, th, u, j, l := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Br(c, e, th) // reverse postorder: entry, th, e, j, l, u
	f.SetBlock(e)
	x := f.Add(a, b)
	f.Sink(x)
	f.Br(c, u, j)
	f.SetBlock(u) // dominated by e only
	z1 := f.Add(a, b)
	f.Sink(z1)
	f.Ret(ir.NoReg)
	f.SetBlock(th)
	f.Jmp(j)
	f.SetBlock(j) // reached from e and th: x does not dominate it
	y := f.Add(a, b)
	f.Sink(y)
	f.Jmp(l)
	f.SetBlock(l) // dominated by j
	z2 := f.Add(a, b)
	f.Sink(z2)
	f.Ret(ir.NoReg)
	m := mb.Module()
	compiler.GlobalCSE{}.Run(m)
	for _, want := range []struct {
		block   int
		dst, of ir.Reg
	}{{u, z1, x}, {l, z2, y}} {
		in := m.Funcs[0].Blocks[want.block].Instrs[0]
		if in.Dst != want.dst || in.Op != ir.OpMov || in.A != want.of {
			t.Errorf("block %d starts r%d = %s r%d, want r%d = mov r%d", want.block, in.Dst, in.Op, in.A, want.dst, want.of)
		}
	}
}
