package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/interp"
	"repro/internal/oracle"
	"repro/internal/spec"
)

// parseLevels turns "0,2,3" into validated optimization levels.
func parseLevels(s string) ([]compiler.OptLevel, error) {
	var out []compiler.OptLevel
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -O list %q: %v", s, err)
		}
		lv, err := compiler.ParseLevel(n)
		if err != nil {
			return nil, err
		}
		out = append(out, lv)
	}
	return out, nil
}

// runVerify implements `stabilizer verify`: the semantic-invariance oracle
// over the benchmark suite and the example programs, under both execution
// engines. Exit status 1 means a divergence or infrastructure failure (the
// report is printed), 2 a usage error.
func runVerify(args []string) int {
	fs := flag.NewFlagSet("stabilizer verify", flag.ExitOnError)
	bench := fs.String("bench", "", "verify only this benchmark (default: full suite + examples)")
	seeds := fs.Int("seeds", 3, "randomization seeds per cell axis")
	levels := fs.String("O", "0,1,2,3", "comma-separated optimization levels to sweep")
	allocs := fs.String("allocs", strings.Join(oracle.AllocatorNames, ","),
		"comma-separated heap allocators to sweep under STABILIZER (native: the native runtime and its TLSF heap)")
	scale := fs.Float64("scale", 0.1, "workload scale (verification sweeps many cells; keep small)")
	jobs := fs.Int("j", 0, "parallel workers (0 = $SZ_PARALLEL or GOMAXPROCS)")
	interval := fs.Uint64("interval", 0, "re-randomization interval in cycles (0 = oracle default)")
	fs.Parse(args)

	experiment.SetParallelism(*jobs)

	lvs, err := parseLevels(*levels)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stabilizer verify: %v\n", err)
		return 2
	}
	var seedList []uint64
	for i := 0; i < *seeds; i++ {
		seedList = append(seedList, uint64(i+1))
	}

	benches := append(spec.FullSuite(), spec.Examples()...)
	if *bench != "" {
		b, ok := spec.ByName(*bench)
		if !ok {
			for _, e := range spec.Examples() {
				if e.Name == *bench {
					b, ok = e, true
					break
				}
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "stabilizer verify: unknown benchmark %q\n", *bench)
			return 2
		}
		benches = []spec.Benchmark{b}
	}

	opts := oracle.VerifyOptions{
		Scale:   *scale,
		Workers: *jobs,
		Matrix: oracle.Options{
			Seeds:      seedList,
			Levels:     lvs,
			Allocators: strings.Split(*allocs, ","),
			Interval:   *interval,
		},
	}

	fmt.Printf("verifying semantic invariance: %d programs x %d seeds x %d levels x %d allocators x %d engines\n",
		len(benches), len(seedList), len(lvs), len(opts.Matrix.Allocators), len(interp.Engines()))
	ctx, stop := experiment.NotifyShutdown(context.Background(), os.Stderr)
	defer stop()
	rep, err := oracle.VerifySemantics(ctx, benches, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stabilizer verify: %v\n", err)
		return 1
	}
	fmt.Print(rep)
	if rep.Failed() {
		return 1
	}
	fmt.Printf("all %d cells agree\n", rep.Cells)
	return 0
}
