package interp

import (
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
)

// freshModule compiles a generated program into a module no run has seen.
// The program is large enough that lowering it takes longer than starting
// the concurrent runs, so their first runs overlap.
func freshModule(t *testing.T) *ir.Module {
	t.Helper()
	gen := ir.GenConfig{MaxFuncs: 24, MaxBlockLen: 24, MaxLoopIters: 4}
	m, err := compiler.Compile(ir.Generate(21, gen), compiler.Options{Level: compiler.O2})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

// runOnce links m and runs it under the compiled engine on a fresh machine
// with the native layout.
func runOnce(m *ir.Module) (Result, error) {
	as := mem.NewAddressSpace()
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		return Result{}, err
	}
	mach := machine.New(machine.DefaultConfig())
	return Run(m, Options{
		Machine: mach,
		Runtime: &NativeRuntime{
			FuncAddrs:   img.FuncAddrs,
			GlobalAddrs: img.GlobalAddrs,
			Stack:       as.StackBase(),
			Heap:        heap.NewSegregated(as),
			Mach:        mach,
		},
		Engine: EngineCompiled,
	})
}

// TestModuleLoweredOnceUnderConcurrentRuns starts a fresh module's first
// runs on several goroutines at once: they must share one lowering.
func TestModuleLoweredOnceUnderConcurrentRuns(t *testing.T) {
	m := freshModule(t)
	before := lowerings.Load()
	const n = 8
	results := make([]Result, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range n {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			results[i], errs[i] = runOnce(m)
		}()
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if results[i].Cycles != results[0].Cycles || results[i].Output != results[0].Output {
			t.Fatalf("run %d = %+v, run 0 = %+v", i, results[i], results[0])
		}
	}
	if got := lowerings.Load() - before; got != 1 {
		t.Fatalf("%d concurrent first runs lowered the module %d times, want 1", n, got)
	}
}

// TestLoweredFormBelongsToModule checks that a module's lowered form is
// built once and reused by later runs, and that a Clone, being a new
// module, does not inherit it.
func TestLoweredFormBelongsToModule(t *testing.T) {
	m := freshModule(t)
	before := lowerings.Load()
	first, err := runOnce(m)
	if err != nil {
		t.Fatal(err)
	}
	lm := lowered(m)
	if lm.m != m {
		t.Fatal("lowered form does not refer to its module")
	}
	again, err := runOnce(m)
	if err != nil {
		t.Fatal(err)
	}
	if lowered(m) != lm || lowerings.Load()-before != 1 {
		t.Fatalf("second run re-lowered the module (%d lowerings)", lowerings.Load()-before)
	}

	c := m.Clone()
	cloned, err := runOnce(c)
	if err != nil {
		t.Fatal(err)
	}
	if lc := lowered(c); lc == lm || lc.m != c {
		t.Fatal("clone shares the original module's lowered form")
	}
	if got := lowerings.Load() - before; got != 2 {
		t.Fatalf("original and clone lowered %d times, want 2", got)
	}
	if again.Cycles != first.Cycles || cloned.Cycles != first.Cycles || cloned.Output != first.Output {
		t.Fatalf("runs disagree: first %+v, again %+v, clone %+v", first, again, cloned)
	}
}
