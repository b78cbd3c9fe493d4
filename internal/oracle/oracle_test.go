package oracle

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trap"
)

// churnFixture is a small deterministic program with heap churn, stack and
// global traffic, and regular sinks — enough surface for every axis of the
// matrix to act on.
func churnFixture() *ir.Module {
	mb := ir.NewModuleBuilder("churn")
	mb.GlobalInit("g0", []int64{3, 5, 7, 11})
	f := mb.Func("main", 0)
	s0 := f.Slot("s0", 16)
	f.StoreS(s0, 0, ir.NoReg, f.ConstI(9))
	acc := f.ConstI(1)
	f.LoopN(24, func(i ir.Reg) {
		p := f.Alloc(64)
		f.StoreH(p, 0, ir.NoReg, f.Add(acc, i))
		f.StoreH(p, 56, ir.NoReg, f.LoadG(0, 8, ir.NoReg))
		v := f.Add(f.LoadH(p, 0, ir.NoReg), f.LoadH(p, 56, ir.NoReg))
		f.StoreG(0, 16, ir.NoReg, v)
		f.StoreS(s0, 8, ir.NoReg, v)
		f.Sink(f.Add(v, f.LoadS(s0, 0, ir.NoReg)))
		f.Free(p)
	})
	f.Sink(f.LoadG(0, 16, ir.NoReg))
	f.Ret(f.ConstI(0))
	return mb.Module()
}

// leakFixture allocates without freeing, so live objects accumulate and the
// allocators' address streams drift apart quickly.
func leakFixture() *ir.Module {
	mb := ir.NewModuleBuilder("leak")
	f := mb.Func("main", 0)
	f.LoopN(40, func(i ir.Reg) {
		p := f.Alloc(64)
		f.StoreH(p, 0, ir.NoReg, i)
		f.Sink(f.LoadH(p, 0, ir.NoReg))
	})
	f.Ret(f.ConstI(0))
	return mb.Module()
}

func TestVerifyCleanFixture(t *testing.T) {
	res, err := Verify("churn", churnFixture(), Options{})
	if err != nil {
		t.Fatalf("verify failed on a clean fixture: %v", err)
	}
	want := 3 * 4 * 5 * 2 // seeds x levels x allocators x engines
	if res.Cells != want {
		t.Fatalf("ran %d cells, want %d", res.Cells, want)
	}
	if res.Arch == 0 {
		t.Fatal("zero arch digest")
	}
	if len(res.Exec) != 4 {
		t.Fatalf("got exec digests for %d levels, want 4", len(res.Exec))
	}
}

// TestCellLayoutsPinned pins each cell's layout through the machine
// counters of its compiled-engine run. The digests are layout-invariant, so
// they cannot notice the oracle's salt or its draws moving; these counters
// do. The table was computed before cells were built by experiment.NewRun,
// so it also holds NewRun to the oracle's historical draw order.
func TestCellLayoutsPinned(t *testing.T) {
	want := []struct {
		level compiler.OptLevel
		seed  uint64
		alloc string
		c     string // the run's machine.Counters, field by field
	}{
		{compiler.O0, 1, "segregated", "{3949 521 96 3 240 7 1 9 0 9 341 5 25 1 0}"},
		{compiler.O0, 1, "tlsf", "{3949 521 96 3 240 7 1 9 0 9 341 5 25 1 0}"},
		{compiler.O0, 1, "diehard", "{8894 521 96 3 217 30 1 32 0 32 318 28 25 1 0}"},
		{compiler.O0, 1, "shuffle", "{8294 521 96 3 217 30 1 32 0 32 338 8 25 1 0}"},
		{compiler.O0, 2, "segregated", "{3764 521 96 3 241 6 1 8 0 8 341 5 25 1 0}"},
		{compiler.O0, 2, "tlsf", "{3764 521 96 3 241 6 1 8 0 8 341 5 25 1 0}"},
		{compiler.O0, 2, "diehard", "{8649 521 96 3 218 29 1 31 0 31 320 26 25 1 0}"},
		{compiler.O0, 2, "shuffle", "{8109 521 96 3 218 29 1 31 0 31 338 8 25 1 0}"},
		{compiler.O0, 3, "segregated", "{3764 521 96 3 241 6 1 8 0 8 341 5 25 1 0}"},
		{compiler.O0, 3, "tlsf", "{3764 521 96 3 241 6 1 8 0 8 341 5 25 1 0}"},
		{compiler.O0, 3, "diehard", "{8709 521 96 3 218 29 1 31 0 31 318 28 25 1 0}"},
		{compiler.O0, 3, "shuffle", "{7924 521 96 3 219 28 1 30 0 30 338 8 25 1 0}"},
		{compiler.O2, 1, "segregated", "{3926 498 97 3 240 7 1 9 0 9 342 5 25 1 0}"},
		{compiler.O2, 1, "tlsf", "{3926 498 97 3 240 7 1 9 0 9 342 5 25 1 0}"},
		{compiler.O2, 1, "diehard", "{8871 498 97 3 217 30 1 32 0 32 319 28 25 1 0}"},
		{compiler.O2, 1, "shuffle", "{8271 498 97 3 217 30 1 32 0 32 339 8 25 1 0}"},
		{compiler.O2, 2, "segregated", "{3741 498 97 3 241 6 1 8 0 8 342 5 25 1 0}"},
		{compiler.O2, 2, "tlsf", "{3741 498 97 3 241 6 1 8 0 8 342 5 25 1 0}"},
		{compiler.O2, 2, "diehard", "{8626 498 97 3 218 29 1 31 0 31 321 26 25 1 0}"},
		{compiler.O2, 2, "shuffle", "{8086 498 97 3 218 29 1 31 0 31 339 8 25 1 0}"},
		{compiler.O2, 3, "segregated", "{3741 498 97 3 241 6 1 8 0 8 342 5 25 1 0}"},
		{compiler.O2, 3, "tlsf", "{3741 498 97 3 241 6 1 8 0 8 342 5 25 1 0}"},
		{compiler.O2, 3, "diehard", "{8686 498 97 3 218 29 1 31 0 31 319 28 25 1 0}"},
		{compiler.O2, 3, "shuffle", "{7901 498 97 3 219 28 1 30 0 30 339 8 25 1 0}"},
	}
	type fields machine.Counters // prints without Counters.String
	opts := Options{}
	opts.defaults()
	v := &verifier{name: "churn", mods: map[compiler.OptLevel]*ir.Module{}, opts: opts}
	for _, lv := range []compiler.OptLevel{compiler.O0, compiler.O2} {
		m, err := compiler.Compile(churnFixture(), compiler.Options{Level: lv, Stabilize: true})
		if err != nil {
			t.Fatal(err)
		}
		v.mods[lv] = m
	}
	for _, w := range want {
		cell := Cell{Program: "churn", Seed: w.seed, Level: w.level, Allocator: w.alloc, Engine: interp.EngineCompiled}
		run, err := v.cellRun(cell)
		if err != nil {
			t.Fatalf("%v: %v", cell, err)
		}
		_, err = interp.Run(v.mods[w.level], interp.Options{
			Machine: run.Machine, Runtime: run.Runtime, MaxSteps: opts.MaxSteps, Engine: cell.Engine,
		})
		got := fmt.Sprint(fields(run.Machine.Snapshot()))
		run.Release()
		if err != nil {
			t.Fatalf("%v: %v", cell, err)
		}
		if got != w.c {
			t.Errorf("%v: counters moved:\n got  %s\n want %s", cell, got, w.c)
		}
	}
}

func TestVerifyGeneratedPrograms(t *testing.T) {
	for _, seed := range []uint64{3, 17, 101} {
		m := ir.Generate(seed, ir.GenConfig{})
		if _, err := Verify("gen", m, Options{Seeds: []uint64{1, 2}}); err != nil {
			var div *Divergence
			if errors.As(err, &div) {
				t.Fatalf("seed %d:\n%s", seed, div.Report())
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFaultEquivalence: programs with planted heap-misuse faults must trap
// with the same kind in every cell — a trap is a valid outcome as long as it
// is layout- and optimization-invariant.
func TestFaultEquivalence(t *testing.T) {
	for _, seed := range []uint64{5, 23, 77, 131} {
		m := ir.Generate(seed, ir.GenConfig{Faults: true})
		if _, err := Verify("fault", m, Options{Seeds: []uint64{1, 2}}); err != nil {
			var div *Divergence
			if errors.As(err, &div) {
				t.Fatalf("seed %d:\n%s", seed, div.Report())
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// oddPageAlloc is the planted layout-dependent bug: allocation fails
// whenever the returned object lands on an odd page. Which allocation (if
// any) that is depends on the allocator policy and the ASLR seed — exactly
// the class of bug the oracle exists to catch.
type oddPageAlloc struct {
	heap.Allocator
}

func (o oddPageAlloc) Alloc(size uint64) (mem.Addr, error) {
	a, err := o.Allocator.Alloc(size)
	if err != nil {
		return 0, err
	}
	if a.Page()%2 == 1 {
		return 0, trap.New(trap.OutOfMemory, "planted: object at %#x on an odd page", uint64(a))
	}
	return a, nil
}

func TestPlantedLayoutBugCaught(t *testing.T) {
	opts := Options{
		wrapAlloc: func(a heap.Allocator) heap.Allocator { return oddPageAlloc{a} },
	}
	_, err := Verify("planted", leakFixture(), opts)
	if err == nil {
		t.Fatal("planted layout-dependent bug not caught")
	}
	var div *Divergence
	if !errors.As(err, &div) {
		t.Fatalf("want a *Divergence, got: %v", err)
	}
	if div.Axis != AxisLayout {
		t.Fatalf("divergence on axis %q, want %q", div.Axis, AxisLayout)
	}
	if div.RefEvent == nil && div.GotEvent == nil {
		t.Fatalf("divergence not localized to an event:\n%s", div.Report())
	}
	rep := div.Report()
	if !strings.Contains(rep, "first diverging retired instruction") {
		t.Fatalf("report does not name the first diverging retired instruction:\n%s", rep)
	}
	t.Logf("caught:\n%s", rep)
}

func TestVerifyCompiledMissingLevel(t *testing.T) {
	m, err := compiler.Compile(churnFixture(), compiler.Options{Level: compiler.O0, Stabilize: true})
	if err != nil {
		t.Fatal(err)
	}
	mods := map[compiler.OptLevel]*ir.Module{compiler.O0: m}
	if _, err := verifyCompiled("churn", mods, Options{}); err == nil {
		t.Fatal("missing level not reported")
	}
}

func TestBuildAllocatorUnknown(t *testing.T) {
	_, err := Verify("churn", churnFixture(), Options{Allocators: []string{"bump"}})
	if err == nil || !strings.Contains(err.Error(), "unknown allocator") {
		t.Fatalf("unknown allocator not reported: %v", err)
	}
}
