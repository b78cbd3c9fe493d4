package compiler_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/spec"
)

// goldenPrograms is how many ir.Generate programs TestCompileGolden pins
// beside the suite: seeds 0 to goldenPrograms-1, the programs
// TestFuzzPassesPreserveSemantics runs. They reach shapes the suite may
// miss, such as strength reductions in mid-block, inliner budget hits and
// invoke sites.
const goldenPrograms = 60

// TestCompileGolden pins the compiler's output: the SHA-256 of the module
// text for every suite benchmark (the C++ ones included) at scale 0.2, and
// for the generated programs, at -O0 to -O3, with and without the
// STABILIZER transformations. A change to how the compiler reaches its
// result, such as computing an analysis less often, must leave every line
// of testdata/module_digests.txt unchanged; a change meant to alter
// compiled code replaces the lines this test prints.
func TestCompileGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "module_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var names []string
	var srcs []*ir.Module
	for _, b := range spec.FullSuite() {
		names = append(names, b.Name)
		srcs = append(srcs, b.Build(0.2))
	}
	for seed := uint64(0); seed < goldenPrograms; seed++ {
		names = append(names, fmt.Sprintf("gen%d", seed))
		srcs = append(srcs, ir.Generate(seed, ir.GenConfig{}))
	}
	var got []string
	for i, src := range srcs {
		for _, lvl := range compiler.Levels() {
			for _, stab := range []bool{false, true} {
				m, err := compiler.Compile(src, compiler.Options{Level: lvl, Stabilize: stab})
				if err != nil {
					t.Fatalf("%s %s stabilize=%v: %v", names[i], lvl, stab, err)
				}
				got = append(got, fmt.Sprintf("%s %s %v %x", names[i], lvl, stab, sha256.Sum256([]byte(m.String()))))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("compiled module drifted:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
