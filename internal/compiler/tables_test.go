package compiler_test

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/spec"
)

// TestBlockPassesAllocatePerPass checks that ConstFold and LocalCSE keep
// their tables for a whole pass: one run over the compiled gcc module makes
// fewer allocations than the module has blocks, where a table per block
// would make at least one per block.
func TestBlockPassesAllocatePerPass(t *testing.T) {
	b, ok := spec.ByName("gcc")
	if !ok {
		t.Fatal("gcc missing from the suite")
	}
	m, err := compiler.Compile(b.Build(0.2), compiler.Options{Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, f := range m.Funcs {
		blocks += len(f.Blocks)
	}
	for _, p := range []compiler.Pass{compiler.ConstFold{}, compiler.LocalCSE{}} {
		allocs := testing.AllocsPerRun(5, func() { p.Run(m) })
		t.Logf("%s: %.0f allocations, %d functions, %d blocks", p.Name(), allocs, len(m.Funcs), blocks)
		if allocs >= float64(blocks) {
			t.Errorf("%s made %.0f allocations over %d blocks", p.Name(), allocs, blocks)
		}
	}
}

// TestConcurrentCompileMatchesSerial compiles the suite at -O3 with the
// STABILIZER transformations from 4 goroutines at once, as pool workers do
// through the experiment compile cache, and checks each module against the
// serial compile. Run with -race, it also checks that no pass shares its
// scratch tables between calls.
func TestConcurrentCompileMatchesSerial(t *testing.T) {
	opts := compiler.Options{Level: compiler.O3, Stabilize: true}
	suite := spec.Suite()
	srcs := make([]*ir.Module, len(suite))
	want := make([][sha256.Size]byte, len(suite))
	for i, b := range suite {
		srcs[i] = b.Build(0.2)
		m, err := compiler.Compile(srcs[i], opts)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want[i] = sha256.Sum256([]byte(m.String()))
	}
	const workers = 4
	errs := make(chan error, workers*len(srcs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at a different benchmark, so different
			// modules are compiled at the same time.
			for k := range srcs {
				i := (k + w*len(srcs)/workers) % len(srcs)
				m, err := compiler.Compile(srcs[i], opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d, %s: %v", w, suite[i].Name, err)
					continue
				}
				if sha256.Sum256([]byte(m.String())) != want[i] {
					errs <- fmt.Errorf("worker %d: %s differs from the serial compile", w, suite[i].Name)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
