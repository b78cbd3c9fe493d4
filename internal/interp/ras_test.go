package interp_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
)

// mockRuntime is a NativeRuntime whose layout table sends every call and
// global access through a relocation table at slotBase: callee c's slot
// sits at slotBase+8c and global g's at slotBase+0x1000+8g.
type mockRuntime struct {
	interp.NativeRuntime
	slotBase mem.Addr
}

func (m *mockRuntime) Layout() *interp.Layout {
	lay := m.NativeRuntime.Layout()
	nf := len(lay.Funcs)
	for fn := range lay.Funcs {
		slots := make([]int32, nf+len(lay.Globals))
		for i := range slots {
			slots[i] = int32(i) * 8
			if i >= nf {
				slots[i] = 0x1000 + int32(i-nf)*8
			}
		}
		lay.Funcs[fn].Reloc = m.slotBase
		lay.Funcs[fn].Slots = slots
	}
	return lay
}

func buildCallProgram(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModuleBuilder("callprog")
	g := mb.GlobalInit("g", []int64{5})
	leaf := mb.Func("leaf", 1)
	leaf.Ret(leaf.Add(leaf.Param(0), leaf.LoadG(g, 0, ir.NoReg)))
	main := mb.Func("main", 0)
	s := main.ConstI(0)
	main.LoopN(10, func(i ir.Reg) {
		main.MovTo(s, main.Add(s, main.Call(leaf.Index(), i)))
	})
	main.Sink(s)
	main.Ret(ir.NoReg)
	m := mb.Module()
	m.Finalize()
	ir.ComputeSizes(m)
	return m
}

func TestRelocIndirectionChargedPerUse(t *testing.T) {
	m := buildCallProgram(t)
	as := mem.NewAddressSpace()
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		t.Fatal(err)
	}

	for _, eng := range interp.Engines() {
		run := func(rt interp.Runtime, mach *machine.Machine) interp.Result {
			res, err := interp.Run(m, interp.Options{Machine: mach, Runtime: rt, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		machPlain := machine.New(machine.DefaultConfig())
		plain := run(&interp.NativeRuntime{
			FuncAddrs: img.FuncAddrs, GlobalAddrs: img.GlobalAddrs,
			Stack: as.StackBase(), Heap: nil, Mach: machPlain,
		}, machPlain)

		machMock := machine.New(machine.DefaultConfig())
		indirect := run(&mockRuntime{
			NativeRuntime: interp.NativeRuntime{
				FuncAddrs: img.FuncAddrs, GlobalAddrs: img.GlobalAddrs,
				Stack: as.StackBase(), Heap: nil, Mach: machMock,
			},
			slotBase: 0x30000000,
		}, machMock)

		if indirect.Output != plain.Output {
			t.Fatalf("%s: relocation indirection changed program output", eng)
		}
		// Each slot read is one extra retired load: 10 calls from main (the
		// entry call has no caller, so it is direct) and 10 loads of g, one
		// per invocation of leaf.
		if indirect.Instructions != plain.Instructions+20 {
			t.Fatalf("%s: indirection retired %d instructions, plain %d; want exactly 20 more",
				eng, indirect.Instructions, plain.Instructions)
		}
	}
}

func TestRASPredictsNestedReturns(t *testing.T) {
	// A chain of nested calls within the RAS depth must produce no return
	// mispredictions (no Mispredict stalls beyond those from branches).
	mb := ir.NewModuleBuilder("nest")
	fns := make([]*ir.FuncBuilder, 8)
	for i := range fns {
		fns[i] = mb.Func("f", 1)
	}
	for i, f := range fns {
		if i+1 < len(fns) {
			f.Ret(f.Call(fns[i+1].Index(), f.Param(0)))
		} else {
			f.Ret(f.Add(f.Param(0), f.ConstI(1)))
		}
	}
	main := mb.Func("main", 0)
	s := main.ConstI(0)
	main.LoopN(50, func(i ir.Reg) {
		main.MovTo(s, main.Add(s, main.Call(fns[0].Index(), i)))
	})
	main.Sink(s)
	main.Ret(ir.NoReg)
	m := mb.Module()
	m.Finalize()
	ir.ComputeSizes(m)

	as := mem.NewAddressSpace()
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(machine.DefaultConfig())
	_, err = interp.Run(m, interp.Options{Machine: mach, Runtime: &interp.NativeRuntime{
		FuncAddrs: img.FuncAddrs, GlobalAddrs: img.GlobalAddrs,
		Stack: as.StackBase(), Mach: mach,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Direction mispredicts come from the loop; target mispredicts must be
	// zero — the depth-8 nest fits the 16-entry RAS and calls are direct.
	if mach.BP.TargetMispredicts != 0 {
		t.Fatalf("got %d target mispredicts in a RAS-friendly nest", mach.BP.TargetMispredicts)
	}
}

func TestRASOverflowMispredicts(t *testing.T) {
	// Recursion deeper than the RAS forces return mispredictions (modeled
	// as Mispredict stalls); the run must still complete correctly.
	mb := ir.NewModuleBuilder("deep")
	rec := mb.Func("rec", 1)
	n := rec.Param(0)
	res := rec.Mov(n)
	cond := rec.CmpLE(n, rec.ConstI(0))
	rec.If(cond, nil, func() {
		rec.MovTo(res, rec.Add(n, rec.Call(rec.Index(), rec.Sub(n, rec.ConstI(1)))))
	})
	rec.Ret(res)
	main := mb.Func("main", 0)
	main.Sink(main.Call(rec.Index(), main.ConstI(64))) // depth 64 > RAS 16
	main.Ret(ir.NoReg)
	m := mb.Module()
	m.Finalize()
	ir.ComputeSizes(m)

	as := mem.NewAddressSpace()
	img, _ := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)

	mach := machine.New(machine.DefaultConfig())
	res2, err := interp.Run(m, interp.Options{Machine: mach, Runtime: &interp.NativeRuntime{
		FuncAddrs: img.FuncAddrs, GlobalAddrs: img.GlobalAddrs,
		Stack: as.StackBase(), Mach: mach,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// sum 1..64 + final 0 = 2080; checksum of single sink is the value.
	if res2.Output != 2080 {
		t.Fatalf("deep recursion output %d, want 2080", res2.Output)
	}
}

func TestProfileAttributesCycles(t *testing.T) {
	m := buildCallProgram(t)
	as := mem.NewAddressSpace()
	img, _ := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	mach := machine.New(machine.DefaultConfig())
	res, err := interp.Run(m, interp.Options{
		Machine: mach,
		Profile: true,
		Runtime: &interp.NativeRuntime{
			FuncAddrs: img.FuncAddrs, GlobalAddrs: img.GlobalAddrs,
			Stack: as.StackBase(), Mach: mach,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile) != len(m.Funcs) {
		t.Fatalf("profile has %d entries for %d functions", len(res.Profile), len(m.Funcs))
	}
	var total uint64
	for _, c := range res.Profile {
		total += c
	}
	if total == 0 {
		t.Fatal("empty profile")
	}
	// Exclusive attribution must not double count: the sum of per-function
	// cycles cannot exceed the machine's total.
	if total > res.Cycles {
		t.Fatalf("profile sum %d exceeds total cycles %d", total, res.Cycles)
	}
	// Both main and leaf did real work.
	leaf := m.FuncIndex("leaf")
	mainIdx := m.FuncIndex("main")
	if res.Profile[leaf] == 0 || res.Profile[mainIdx] == 0 {
		t.Fatalf("attribution missing: leaf=%d main=%d", res.Profile[leaf], res.Profile[mainIdx])
	}
}
