// Command stabilizer runs one benchmark under a chosen randomization
// configuration and reports timing, machine counters, and runtime activity.
//
// Usage:
//
//	stabilizer -bench astar [-code] [-stack] [-heap] [-rerand]
//	           [-interval 25000] [-runs 5] [-seed 1] [-O 2] [-scale 1]
//	           [-noise 0] [-j n] [-compare]
//	stabilizer verify [-bench name] [-seeds 3] [-O 0,1,2,3]
//	           [-allocs segregated,tlsf,diehard,shuffle] [-scale 0.1] [-j n]
//	stabilizer prof -bench astar [-runs n] [-seed n] [-top n]
//	           [-folded out.folded] [-trace out.json] [-code] [-all] ...
//
// With -compare, it also runs natively and prints the overhead. The verify
// subcommand runs the semantic-invariance oracle over the suite and the
// example programs, exiting 1 with a divergence report if any randomization
// or optimization cell changes observable behaviour. The prof subcommand is
// the layout-attribution profiler (same engine as cmd/szprof): per-function
// counter attribution, folded stacks, a Perfetto flame chart, and the
// cache-set conflict report.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/profcli"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	// Subcommand dispatch: `stabilizer verify` runs the semantic-invariance
	// oracle (see verify.go), `stabilizer prof` the layout-attribution
	// profiler; everything else is the original flag CLI.
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		os.Exit(runVerify(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "prof" {
		os.Exit(profcli.Main(os.Args[2:], os.Stdout, os.Stderr))
	}

	bench := flag.String("bench", "", "benchmark name")
	code := flag.Bool("code", false, "randomize code")
	stack := flag.Bool("stack", false, "randomize stack")
	heapR := flag.Bool("heap", false, "randomize heap")
	all := flag.Bool("all", false, "shorthand for -code -stack -heap -rerand")
	rerand := flag.Bool("rerand", false, "re-randomize periodically")
	interval := flag.Uint64("interval", 25_000, "re-randomization interval (cycles)")
	runs := flag.Int("runs", 5, "number of runs")
	seed := flag.Uint64("seed", 1, "base seed")
	level := flag.Int("O", 2, "optimization level")
	scale := flag.Float64("scale", 1.0, "workload scale")
	noise := flag.Float64("noise", 0, "relative stddev of simulated system noise: 0 = default (0.25%), negative = disabled, max 1 (values above 1 are rejected)")
	jobs := flag.Int("j", 0, "parallel workers for the runs (0 = $SZ_PARALLEL or GOMAXPROCS, 1 = sequential); identical results at any value")
	compare := flag.Bool("compare", false, "also run natively and report overhead")
	counters := flag.Bool("counters", false, "print perf-stat-style machine counters for the last run")
	profile := flag.Bool("profile", false, "print per-function cycle attribution for the last run")
	flag.Parse()

	experiment.SetParallelism(*jobs)

	b, ok := spec.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "stabilizer: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	optLevel, err := compiler.ParseLevel(*level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stabilizer: %v\n", err)
		os.Exit(2)
	}
	if *all {
		*code, *stack, *heapR, *rerand = true, true, true, true
	}

	opts := &core.Options{
		Code: *code, Stack: *stack, Heap: *heapR,
		Rerandomize: *rerand, Interval: *interval,
	}
	cfg := experiment.Config{Scale: *scale, Level: optLevel, Noise: *noise, Profile: *profile}
	if *code || *stack || *heapR {
		cfg.Stabilizer = opts
	}
	cc, err := experiment.CompileBench(b, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stabilizer: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s %s (-O%d), randomizations: %s, rerand: %v\n",
		b.Name, b.Lang, *level, opts.EnabledString(), *rerand)
	ctx, stop := experiment.NotifyShutdown(context.Background(), os.Stderr)
	defer stop()
	// Collect shards the seed range across -j workers; per-run results come
	// back in seed order, identical to a sequential loop.
	set, err := cc.Collect(ctx, *runs, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stabilizer: %v\n", err)
		os.Exit(1)
	}
	for i, r := range set.Results {
		fmt.Printf("  run %2d: %.6fs  (%d instructions, %d cycles, output %#x)\n",
			i, r.Seconds, r.Instructions, r.Cycles, r.Output)
	}
	samples := set.Seconds
	var last experiment.RunResult
	if len(set.Results) > 0 {
		last = set.Results[len(set.Results)-1]
	}
	if cfg.Stabilizer != nil {
		fmt.Printf("runtime: %d relocations, %d re-randomizations, %d adaptive triggers (last run)\n",
			last.Relocations, last.Rerands, last.AdaptiveTriggers)
	}
	if *counters {
		fmt.Print(last.Counters)
	}
	if *profile && last.Profile != nil {
		type entry struct {
			name   string
			cycles uint64
		}
		entries := make([]entry, 0, len(last.Profile))
		for fi, cyc := range last.Profile {
			if cyc > 0 {
				entries = append(entries, entry{cc.Module.Funcs[fi].Name, cyc})
			}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].cycles > entries[j].cycles })
		fmt.Println("hot functions (exclusive cycles, last run):")
		for i, e := range entries {
			if i >= 12 {
				fmt.Printf("  ... and %d more\n", len(entries)-i)
				break
			}
			fmt.Printf("  %10d  %5.1f%%  %s\n", e.cycles,
				float64(e.cycles)/float64(last.Cycles)*100, e.name)
		}
	}
	if len(samples) >= 2 {
		fmt.Printf("mean %.6fs  stddev %.6fs  cv %.2f%%\n",
			stats.Mean(samples), stats.StdDev(samples),
			stats.StdDev(samples)/stats.Mean(samples)*100)
	} else {
		fmt.Printf("mean %.6fs\n", stats.Mean(samples))
	}

	if *compare {
		nat, err := experiment.CompileBench(b, experiment.Config{Scale: *scale, Level: optLevel})
		if err != nil {
			fmt.Fprintf(os.Stderr, "stabilizer: %v\n", err)
			os.Exit(1)
		}
		nss, err := nat.Collect(ctx, *runs, *seed+1000)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stabilizer: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("native mean %.6fs -> overhead %+.1f%%\n",
			stats.Mean(nss.Seconds), (stats.Mean(samples)/stats.Mean(nss.Seconds)-1)*100)
	}
}
