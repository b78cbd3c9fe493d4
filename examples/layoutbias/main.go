// Layoutbias: measure the two layout biases from the paper's introduction
// on one benchmark — link order and environment size — then t-test two
// batches of STABILIZER runs of the same build against each other.
//
// Link order moves gobmk's time by several percent. Environment size moves
// nothing: the model's timing ignores it, because its caches absorb the
// stack shift the environment block causes (EXPERIMENTS.md E2). Under
// STABILIZER every run draws its own link order and layout, so the two
// batches sample one distribution: the t-test should find nothing, and a
// "significant" verdict is a false positive.
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
	b, _ := spec.ByName("gobmk")
	const scale = 0.5

	// 1. Link order: the same code, linked in 24 different orders.
	fmt.Println("== link-order bias (gobmk, 24 random orders) ==")
	cl, err := experiment.CompileBench(b, experiment.Config{
		Scale: scale, Level: compiler.O2, RandomLinkOrder: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	var best, worst float64
	for o := 0; o < 24; o++ {
		r, err := cl.Run(uint64(o + 1))
		if err != nil {
			log.Fatal(err)
		}
		if best == 0 || r.Seconds < best {
			best = r.Seconds
		}
		if r.Seconds > worst {
			worst = r.Seconds
		}
	}
	fmt.Printf("fastest order %.6fs, slowest %.6fs: changing ONLY the link\n", best, worst)
	fmt.Printf("order moved performance by %.1f%%\n\n", (worst/best-1)*100)

	// 2. Environment size: same binary, different environment block.
	fmt.Println("== environment-size bias (same binary, env 0 vs 3 KiB) ==")
	for _, env := range []uint64{0, 3072} {
		ce, err := experiment.CompileBench(b, experiment.Config{
			Scale: scale, Level: compiler.O2, EnvSize: env,
		})
		if err != nil {
			log.Fatal(err)
		}
		s, err := ce.Samples(8, 500)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("env %4d bytes: mean %.6fs\n", env, stats.Mean(s))
	}
	fmt.Println("The model's timing ignores environment size (EXPERIMENTS.md E2): the block")
	fmt.Println("shifts the stack, and the caches absorb the shift.")
	fmt.Println()

	// 3. Two batches of one build under STABILIZER: every run draws its own
	// link order and layout, so both batches sample the same distribution.
	fmt.Println("== two batches of 15 STABILIZER runs of the same build ==")
	st := core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: 25_000}
	cs, err := experiment.CompileBench(b, experiment.Config{
		Scale: scale, Level: compiler.O2, Stabilizer: &st, RandomLinkOrder: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	a1, err := cs.Samples(15, 1000)
	if err != nil {
		log.Fatal(err)
	}
	a2, err := cs.Samples(15, 2000)
	if err != nil {
		log.Fatal(err)
	}
	t := stats.WelchT(a1, a2)
	verdict := "not significant"
	if t.Significant(0.05) {
		verdict = "significant"
	}
	fmt.Printf("batch A mean %.6fs, batch B mean %.6fs, t-test p = %.3f  -> %s\n",
		stats.Mean(a1), stats.Mean(a2), t.P, verdict)
	fmt.Println("Each run has its own link order, so the batches differ only by chance: a")
	fmt.Println("'significant' verdict here is a false positive.")
}
