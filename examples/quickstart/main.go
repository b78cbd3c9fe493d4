// Quickstart: run a program natively and under STABILIZER, before and after
// a change, and use a t-test to ask the paper's question — "does a given
// change to a program affect its performance, or is this effect
// indistinguishable from noise?" (§2).
//
// The "change" is deliberately a non-change: the same program (see
// spec.QuickstartProgram) with an unused stack slot in one helper, the kind
// of incidental edit (§1: "adding or removing a stack variable") that moves
// addresses after it. In the simulated machine it changes nothing: every
// native run of either version, at any seed, takes the same number of
// cycles, and only the 0.25% system-noise term spreads the measured times.
// So both t-tests should find nothing, and at p < 0.05 each still finds
// something in one comparison out of twenty. examples/layoutbias shows the
// layout bias the model does have.
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	const runs = 30
	ex := spec.Examples() // the program, then the program with the change
	stabilized := core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: 20_000}

	// sample runs b `runs` times at -O1 with seeds base, base+1, …
	sample := func(b spec.Benchmark, st *core.Options, base uint64) []float64 {
		c, err := experiment.CompileBench(b, experiment.Config{Level: compiler.O1, Stabilizer: st})
		if err != nil {
			log.Fatal(err)
		}
		s, err := c.Samples(runs, base)
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	report := func(name string, before, after []float64) {
		t := stats.WelchT(before, after)
		verdict := "not significant"
		if t.Significant(0.05) {
			verdict = "significant"
		}
		fmt.Printf("%-11s before %.6fs, after %.6fs (%+.2f%%), t-test p = %.4f  -> %s\n", name+":",
			stats.Mean(before), stats.Mean(after), (stats.Mean(after)/stats.Mean(before)-1)*100, t.P, verdict)
	}

	fmt.Println("The 'change': an unused 64-byte stack slot in one helper function.")
	fmt.Println()
	report("native", sample(ex[0], nil, 100), sample(ex[1], nil, 200))
	report("STABILIZER", sample(ex[0], &stabilized, 300), sample(ex[1], &stabilized, 400))
	fmt.Println()
	fmt.Println("The change does nothing in this model: natively, every run of either version")
	fmt.Println("takes the same number of cycles, and only the 0.25% noise term varies. A")
	fmt.Println("'significant' verdict here would be one of the false positives p < 0.05 allows.")
	fmt.Println("For the layout bias the model does show, link order: go run ./examples/layoutbias")
}
