// Package profcli implements the layout-attribution profiler CLI. It is
// the shared engine behind cmd/szprof and the `stabilizer prof`
// subcommand: compile one benchmark, run it under the profiling observer
// for a range of seeds, and report where the machine's cycles and cache
// misses went — per function, per call stack (folded stacks and a
// Perfetto flame chart on the simulated-cycle axis), and per cache set
// (which function pairs collide, the paper's §5.2 explanation made
// checkable).
package profcli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Exit codes: 0 success, 1 run/validation failure, 2 usage error.
const (
	exitOK    = 0
	exitFail  = 1
	exitUsage = 2
)

// Main runs the profiler CLI with the given arguments and returns the
// process exit code. Parameterized on the output writers so tests can
// drive it without a subprocess.
func Main(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("szprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchName := fs.String("bench", "", "benchmark name (suite, C++ set, or quickstart examples)")
	seed := fs.Uint64("seed", 1, "base seed; run i uses seed+i")
	runs := fs.Int("runs", 1, "number of profiled runs to merge")
	level := fs.Int("O", 2, "optimization level (0-3)")
	scale := fs.Float64("scale", 1.0, "workload scale")
	code := fs.Bool("code", false, "randomize code layout")
	stack := fs.Bool("stack", false, "randomize stack frames")
	heapR := fs.Bool("heap", false, "randomize heap allocations")
	all := fs.Bool("all", false, "shorthand for -code -stack -heap -rerand")
	rerand := fs.Bool("rerand", false, "re-randomize periodically")
	interval := fs.Uint64("interval", 25_000, "re-randomization interval (cycles)")
	topN := fs.Int("top", 12, "rows in the function table and conflict report (0 = all)")
	folded := fs.String("folded", "", "write folded call stacks (flamegraph.pl/speedscope format) to this file")
	trace := fs.String("trace", "", "write a Perfetto flame chart (trace-event JSON, 1 µs = 1 cycle) to this file")
	conflicts := fs.Bool("conflicts", true, "print the cache-set conflict report")
	validate := fs.String("validate-trace", "", "validate a trace-event JSON file and exit (no benchmark run)")
	fs.Usage = func() {
		fmt.Fprint(stderr, `szprof — layout-attribution profiler

  szprof -bench name [-runs n] [-seed n] [-O 0..3] [-scale f]
         [-code] [-stack] [-heap] [-rerand] [-all] [-interval n]
         [-top n] [-folded out.folded] [-trace out.json] [-conflicts=false]
  szprof -validate-trace file.json

Attributes per-window machine-counter deltas (cycles, cache misses,
branch mispredicts) to the executing call stack and reports which
function pairs collide in the same cache sets under the run's actual
(post-randomization) layout. All profile output is deterministic for a
fixed seed. -validate-trace checks any Chrome trace-event JSON file
(including -trace output and the engines' -trace files) and exits 0/1.

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "szprof: unexpected arguments: %v\n", fs.Args())
		return exitUsage
	}

	if *validate != "" {
		return validateTraceFile(*validate, stdout, stderr)
	}

	if *benchName == "" {
		fmt.Fprintln(stderr, "szprof: -bench is required (or -validate-trace)")
		fs.Usage()
		return exitUsage
	}
	b, ok := lookupBench(*benchName)
	if !ok {
		fmt.Fprintf(stderr, "szprof: unknown benchmark %q; valid: %s\n", *benchName, benchNames())
		return exitUsage
	}
	optLevel, err := compiler.ParseLevel(*level)
	if err != nil {
		fmt.Fprintf(stderr, "szprof: %v\n", err)
		return exitUsage
	}
	if *runs < 1 {
		fmt.Fprintf(stderr, "szprof: -runs %d: need at least 1\n", *runs)
		return exitUsage
	}
	if *all {
		*code, *stack, *heapR, *rerand = true, true, true, true
	}

	// Noise only perturbs the reported seconds, never the counters the
	// profiler attributes; it is disabled here so the one timing line we
	// print is the raw deterministic cycle count.
	cfg := experiment.Config{Scale: *scale, Level: optLevel, Noise: -1}
	if *code || *stack || *heapR {
		cfg.Stabilizer = &core.Options{
			Code: *code, Stack: *stack, Heap: *heapR,
			Rerandomize: *rerand, Interval: *interval,
		}
	}
	cc, err := experiment.CompileBench(b, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "szprof: %v\n", err)
		return exitFail
	}

	profiles := make([]*obs.Profile, 0, *runs)
	var totalCycles, totalInstrs uint64
	for i := 0; i < *runs; i++ {
		res, p, err := cc.ProfileRun(context.Background(), *seed+uint64(i))
		if err != nil {
			fmt.Fprintf(stderr, "szprof: run %d (seed %d): %v\n", i, *seed+uint64(i), err)
			return exitFail
		}
		totalCycles += res.Cycles
		totalInstrs += res.Instructions
		profiles = append(profiles, p)
	}
	merged := obs.MergeProfiles(profiles)

	rt := "native"
	if cfg.Stabilizer != nil {
		rt = "stab:" + cfg.Stabilizer.EnabledString()
	}
	fmt.Fprintf(stdout, "%s %s %s  %d run(s), seeds %d..%d  %d cycles, %d instructions\n\n",
		b.Name, optLevel, rt, *runs, *seed, *seed+uint64(*runs)-1, totalCycles, totalInstrs)
	fmt.Fprint(stdout, merged.Table(*topN))
	if *conflicts {
		fmt.Fprintf(stdout, "\nCache-set conflicts (layout of seed %d):\n", *seed)
		fmt.Fprint(stdout, merged.ConflictReport(*topN))
	}

	if *folded != "" {
		if err := os.WriteFile(*folded, []byte(merged.FoldedStacks()), 0o644); err != nil {
			fmt.Fprintf(stderr, "szprof: %v\n", err)
			return exitFail
		}
		fmt.Fprintf(stderr, "szprof: wrote folded stacks to %s\n", *folded)
	}
	if *trace != "" {
		var buf bytes.Buffer
		if err := obs.WriteTraceJSON(&buf, merged.FlameEvents()); err != nil {
			fmt.Fprintf(stderr, "szprof: %v\n", err)
			return exitFail
		}
		// Self-check before writing: the flame chart must be valid
		// trace-event JSON or Perfetto will silently drop tracks.
		if err := obs.ValidateTrace(buf.Bytes()); err != nil {
			fmt.Fprintf(stderr, "szprof: generated trace is invalid: %v\n", err)
			return exitFail
		}
		if err := os.WriteFile(*trace, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(stderr, "szprof: %v\n", err)
			return exitFail
		}
		fmt.Fprintf(stderr, "szprof: wrote flame chart to %s (open in ui.perfetto.dev; read µs as cycles)\n", *trace)
	}
	return exitOK
}

// validateTraceFile implements -validate-trace: parse and structurally
// check a Chrome trace-event JSON file. CI runs this over every trace
// artifact the engines emit.
func validateTraceFile(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "szprof: %v\n", err)
		return exitFail
	}
	if err := obs.ValidateTrace(data); err != nil {
		fmt.Fprintf(stderr, "szprof: %s: INVALID: %v\n", path, err)
		return exitFail
	}
	fmt.Fprintf(stdout, "szprof: %s: valid trace-event JSON\n", path)
	return exitOK
}

// lookupBench resolves a name across the full suite (C and C++) and the
// quickstart example programs.
func lookupBench(name string) (spec.Benchmark, bool) {
	if b, ok := spec.ByNameFull(name); ok {
		return b, true
	}
	for _, b := range spec.Examples() {
		if b.Name == name {
			return b, true
		}
	}
	return spec.Benchmark{}, false
}

// benchNames lists every profilable benchmark for error messages.
func benchNames() string {
	var names []string
	for _, b := range spec.FullSuite() {
		names = append(names, b.Name)
	}
	for _, b := range spec.Examples() {
		names = append(names, b.Name)
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
