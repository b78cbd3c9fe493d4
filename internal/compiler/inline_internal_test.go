package compiler

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/spec"
)

// TestInlineThrowSetInvariant checks the property that lets Inline.Run
// compute the throw set once per pass: an Inline pass never changes which
// functions may raise. It runs the -O2 and -O3 pipelines over every suite
// benchmark (the C++ ones throw) and over generated modules, and compares
// throwyFuncs before and after each Inline pass.
func TestInlineThrowSetInvariant(t *testing.T) {
	type input struct {
		name string
		m    *ir.Module
	}
	var inputs []input
	for _, b := range spec.FullSuite() {
		inputs = append(inputs, input{b.Name, b.Build(0.2)})
	}
	for seed := uint64(0); seed < 40; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("generated seed %d", seed), ir.Generate(seed, ir.GenConfig{})})
	}
	raising := 0
	for _, in := range inputs {
		for _, lvl := range []OptLevel{O2, O3} {
			passes, err := Pipeline(lvl)
			if err != nil {
				t.Fatal(err)
			}
			m := in.m.Clone()
			for pi, p := range passes {
				if _, ok := p.(Inline); !ok {
					p.Run(m)
					continue
				}
				before := throwyFuncs(m, callReachability(m))
				p.Run(m)
				if after := throwyFuncs(m, callReachability(m)); !slices.Equal(before, after) {
					t.Errorf("%s %s: pass %d (inline) changed the throw set\nbefore %v\nafter  %v", in.name, lvl, pi, before, after)
				}
				if slices.Contains(before, true) {
					raising++
				}
			}
		}
	}
	if raising == 0 {
		t.Fatal("no input has a function that may raise; the check is vacuous")
	}
}
