package compiler_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/spec"
)

// TestCompileGolden pins the compiler's output: the SHA-256 of the module
// text for every suite benchmark (the C++ ones included) at scale 0.2, at
// -O0 to -O3, with and without the STABILIZER transformations. A change to
// how the compiler reaches its result, such as computing an analysis less
// often, must leave every line of testdata/module_digests.txt unchanged; a
// change meant to alter compiled code replaces the lines this test prints.
func TestCompileGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "module_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	for _, b := range spec.FullSuite() {
		src := b.Build(0.2)
		for _, lvl := range compiler.Levels() {
			for _, stab := range []bool{false, true} {
				m, err := compiler.Compile(src, compiler.Options{Level: lvl, Stabilize: stab})
				if err != nil {
					t.Fatalf("%s %s stabilize=%v: %v", b.Name, lvl, stab, err)
				}
				got = append(got, fmt.Sprintf("%s %s %v %x", b.Name, lvl, stab, sha256.Sum256([]byte(m.String()))))
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
