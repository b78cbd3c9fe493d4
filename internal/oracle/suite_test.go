package oracle

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/ir"
	"repro/internal/spec"
)

// verifyBench wraps a generated module as a benchmark the verifier can
// sweep.
func verifyBench(name string, seed uint64) spec.Benchmark {
	return spec.Benchmark{
		Name: name, Lang: "c", Notes: "synthetic verify fixture",
		Build: func(scale float64) *ir.Module { return ir.Generate(seed, ir.GenConfig{}) },
	}
}

func TestVerifySemantics(t *testing.T) {
	experiment.ResetCompileCache()
	benches := []spec.Benchmark{verifyBench("va", 41), verifyBench("vb", 97)}
	opts := VerifyOptions{
		Matrix: Options{Seeds: []uint64{1, 2}, Levels: []compiler.OptLevel{compiler.O0, compiler.O2}},
	}
	rep, err := VerifySemantics(context.Background(), benches, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean programs failed verification:\n%s", rep)
	}
	// 2 programs x 2 seeds x 2 levels x 5 allocators x 2 engines.
	if want := 2 * 2 * 2 * 5 * 2; rep.Cells != want {
		t.Fatalf("ran %d cells, want %d", rep.Cells, want)
	}
	if len(rep.Findings) != 2 || rep.Findings[0].Program != "va" || rep.Findings[1].Program != "vb" {
		t.Fatalf("findings out of order: %+v", rep.Findings)
	}
	out := rep.String()
	if !strings.Contains(out, "va") || !strings.Contains(out, "ok:") {
		t.Fatalf("summary missing ok lines:\n%s", out)
	}

	// The verify sweep populates the engine's shared compile cache: the
	// same (bench, scale, level, stabilize) key must not recompile.
	hits, misses := experiment.CompileCacheStats()
	if misses != 4 { // 2 programs x 2 levels
		t.Fatalf("compile cache misses = %d, want 4 (hits %d)", misses, hits)
	}
}

func TestVerifySemanticsExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("full example programs in -short mode")
	}
	experiment.ResetCompileCache()
	rep, err := VerifySemantics(context.Background(), spec.Examples(), VerifyOptions{
		Scale: 0.05,
		Matrix: Options{
			Seeds:  []uint64{1, 2},
			Levels: []compiler.OptLevel{compiler.O0, compiler.O1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("example programs failed verification:\n%s", rep)
	}
}

func TestVerifySemanticsReportsCompileError(t *testing.T) {
	bad := spec.Benchmark{
		Name: "bad", Lang: "c", Notes: "compile failure fixture",
		Build: func(scale float64) *ir.Module {
			panic("deliberately unbuildable")
		},
	}
	rep, err := VerifySemantics(context.Background(), []spec.Benchmark{bad}, VerifyOptions{
		Matrix: Options{Seeds: []uint64{1}, Levels: []compiler.OptLevel{compiler.O0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || rep.Findings[0].Err == nil {
		t.Fatalf("compile failure not reported: %+v", rep.Findings)
	}
	if !strings.Contains(rep.String(), "ERROR") {
		t.Fatalf("summary missing ERROR line:\n%s", rep)
	}
}
