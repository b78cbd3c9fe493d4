// Command szgate is the statistically sound benchmark regression gate:
// it collects benchmark runs into durable JSON artifacts and compares two
// artifacts with the statistics the paper argues for (test selection by
// normality screening, bootstrap effect-size confidence intervals,
// Benjamini-Hochberg correction across the suite).
//
// Usage:
//
//	szgate run [-o bench.json] [-runs n | -adaptive [-target f] [-max n]]
//	           [-scale f] [-seed n] [-level 0..3] [-stabilize] [-noise f]
//	           [-throughput] [-store dir]
//	           [-bench name[,name...]] [-cxx] [-quick] [-j n] [-commit sha]
//	           [-metrics file [-metrics-full]] [-trace file]
//	           [-log file [-log-level lvl]]
//	szgate compare old.json new.json [-alpha f] [-threshold f] [-boot n]
//	szgate compare -store dir [collection flags] old.json
//	szgate show artifact.json
//	szgate show -store dir [collection flags]
//	szgate merge -o out.json a.json b.json [c.json ...]
//	szgate floor
//
// `run` writes an artifact; identical seeds give byte-identical artifacts at
// any -j. With -store, completed cells also land in a content-addressed
// result store (shared with the szfarm benchmarking farm) and reruns are
// served from it, so an interrupted run resumes; `compare -store` and
// `show -store` assemble an artifact from such a store in store-only mode
// — byte-identical to the artifact `run` would have written, so the gate
// verdict cannot depend on where the samples came from. `run` collects
// with the compiled engine; a cell's key leaves the engine out, since both
// engines collect identical samples. `compare` prints the gate table and
// distinguishes its exit codes so CI can tell a regression from a broken
// run: 0 means the gate passed, 1 means it failed (a BH-corrected
// regression whose slowdown exceeds -threshold), and 2 means an
// infrastructure error (unreadable artifact, schema mismatch, incomparable
// configurations). `show` summarizes one artifact; `merge` combines
// artifacts collected under the same configuration (extra samples must
// continue the seed range; disjoint benchmark subsets just union).
// `floor` times full runs of the compiled engine against the walk
// reference on this host, and fails (exit 1) unless the 95% BCa lower
// bound of their host-time ratio reaches 1.8 (see floor.go).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gate"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/store"
)

// Exit codes. Gate failure and infrastructure breakage are distinct so a
// CI pipeline can fail a merge on the former and retry/alert on the latter.
const (
	exitOK       = 0
	exitGateFail = 1
	exitInfra    = 2
	exitStopped  = 130 // interrupted by SIGINT/SIGTERM after draining
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitInfra)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		exit(cmdCompare(os.Args[2:], os.Stdout))
	case "floor":
		exit(cmdFloor(os.Args[2:], os.Stdout))
	case "show":
		err = cmdShow(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "szgate: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(exitInfra)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "szgate: %v\n", err)
		if errors.Is(err, experiment.ErrStopped) {
			os.Exit(exitStopped)
		}
		os.Exit(1)
	}
}

// exit reports err, if any, and ends the process with code.
func exit(code int, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "szgate: %v\n", err)
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprint(os.Stderr, `szgate — benchmark artifact collection and regression gating

  szgate run      collect an artifact (deterministic given -seed, any -j)
  szgate compare  gate new.json against old.json; exit 1 on regression
  szgate show     summarize one artifact
  szgate merge    combine artifacts collected under the same configuration
  szgate floor    time the compiled engine against the walk engine here;
                  exit 1 below the 1.8x floor

Run 'szgate <subcommand> -h' for flags.
`)
}

// specFlags are the flags that pin a collection's cells — everything a
// cell key is derived from. Shared by `run` (which computes the cells)
// and the -store modes of compare/show (which assemble the same cells
// from a content-addressed result store, so the flag names must agree).
// seedName is "seed" except in compare, where -seed is already the
// bootstrap seed and the master seed is -collect-seed.
type specFlags struct {
	runs      *int
	scale     *float64
	seed      *uint64
	level     *int
	stabilize *bool
	noise     *float64
	benches   *string
	cxx       *bool
}

func addSpecFlags(fs *flag.FlagSet, seedName string) *specFlags {
	return &specFlags{
		runs:      fs.Int("runs", 20, "runs per benchmark (fixed mode; adaptive start)"),
		scale:     fs.Float64("scale", 1.0, "workload scale"),
		seed:      fs.Uint64(seedName, 2013, "master seed"),
		level:     fs.Int("level", 2, "optimization level (0-3)"),
		stabilize: fs.Bool("stabilize", false, "run under full STABILIZER randomization"),
		noise:     fs.Float64("noise", 0, "relative system-noise sigma (0 = default, negative disables)"),
		benches:   fs.String("bench", "", "comma-separated benchmark subset (default: all)"),
		cxx:       fs.Bool("cxx", false, "include the five C++ benchmarks"),
	}
}

// config resolves the flags into an experiment configuration.
func (f *specFlags) config() (experiment.Config, error) {
	optLevel, err := compiler.ParseLevel(*f.level)
	if err != nil {
		return experiment.Config{}, err
	}
	if *f.runs < 1 {
		return experiment.Config{}, fmt.Errorf("-runs %d: need at least 1", *f.runs)
	}
	if *f.scale <= 0 {
		return experiment.Config{}, fmt.Errorf("-scale %v: must be positive", *f.scale)
	}
	cfg := experiment.Config{Scale: *f.scale, Level: optLevel, Noise: *f.noise}
	if *f.stabilize {
		cfg.Stabilizer = &core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: 25_000}
	}
	return cfg, nil
}

func (f *specFlags) suite() ([]spec.Benchmark, error) {
	return pickSuite(*f.benches, *f.cxx)
}

// storeArtifact assembles the artifact the collection flags describe from
// a result store in store-only mode: the ordinary collection path with the
// compute branch forbidden, so the bytes match a local `run` exactly. A
// missing cell is an error (the store does not silently compute); every
// cell is probed up front so the error names the missing keys — the thing
// an operator needs to resubmit or recompute — rather than just the first.
func storeArtifact(ctx context.Context, dir string, sf *specFlags, commit string) (*bench.Artifact, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg, err := sf.config()
	if err != nil {
		return nil, err
	}
	suite, err := sf.suite()
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, b := range suite {
		key := experiment.CellKey(b.Name, cfg, *sf.runs, bench.SeedBase(*sf.seed, b.Name))
		if st.Get(key, *sf.runs, bench.SeedBase(*sf.seed, b.Name)) == nil {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		const maxListed = 10
		listed := missing
		extra := ""
		if len(listed) > maxListed {
			extra = fmt.Sprintf("\n  ... and %d more", len(listed)-maxListed)
			listed = listed[:maxListed]
		}
		return nil, fmt.Errorf("store %s is missing %d of %d cells:\n  %s%s",
			dir, len(missing), len(suite), strings.Join(listed, "\n  "), extra)
	}
	ctx = experiment.WithStoreOnly(experiment.WithCellStore(ctx, st.Cells()))
	return bench.Collect(ctx, bench.CollectOptions{
		Suite:  suite,
		Config: cfg,
		Runs:   *sf.runs,
		Seed:   *sf.seed,
		Commit: commit,
	})
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("szgate run", flag.ExitOnError)
	out := fs.String("o", "bench.json", "output artifact path (- for stdout)")
	sf := addSpecFlags(fs, "seed")
	throughput := fs.Bool("throughput", false, "record per-run host wall-clock times (non-golden telemetry; no gate reads them)")
	quick := fs.Bool("quick", false, "CI mode: scale 0.2, 8 runs")
	adaptive := fs.Bool("adaptive", false, "adaptive stopping: sample until the CI half-width target")
	target := fs.Float64("target", 0.005, "adaptive: target relative CI half-width on the mean")
	maxRuns := fs.Int("max", 200, "adaptive: run budget per benchmark")
	batch := fs.Int("batch", 10, "adaptive: runs added per round")
	jobs := fs.Int("j", 0, "parallel workers (0 = $SZ_PARALLEL or GOMAXPROCS); identical artifacts at any value")
	progress := fs.Bool("progress", true, "write per-cell progress lines to stderr")
	commit := fs.String("commit", "", "commit label (default: git rev-parse --short HEAD, if available)")
	storeDir := fs.String("store", "", "content-addressed result store directory: completed cells are stored, already-stored cells are served without recomputing (crash-safe: rerun with the same -store to resume)")
	metricsOut := fs.String("metrics", "", "write an engine-metrics snapshot (JSON) to this file at exit; golden fields only, byte-identical at any -j")
	metricsFull := fs.Bool("metrics-full", false, "include wall-clock histograms and gauges in -metrics (real but not reproducible)")
	traceOut := fs.String("trace", "", "write engine spans as Chrome trace-event JSON to this file at exit")
	logOut := fs.String("log", "", "write the structured JSONL run log to this file")
	logLevel := fs.String("log-level", "info", "minimum -log level: debug, info, warn, error")
	fs.Parse(args)

	if *quick {
		*sf.scale = 0.2
		*sf.runs = 8
	}
	cfg, err := sf.config()
	if err != nil {
		return err
	}
	experiment.SetParallelism(*jobs)
	if *progress {
		experiment.SetProgress(os.Stderr)
	}
	flushObs, err := experiment.InstallObs(experiment.ObsFiles{
		Metrics: *metricsOut, Full: *metricsFull,
		Trace: *traceOut,
		Log:   *logOut, LogLevel: *logLevel,
	})
	if err != nil {
		return err
	}
	// Telemetry is written on every exit path: a failed collection still
	// leaves its metrics, trace, and log behind for diagnosis.
	defer func() {
		if ferr := flushObs(); ferr != nil {
			fmt.Fprintf(os.Stderr, "szgate: writing telemetry: %v\n", ferr)
		}
	}()

	suite, err := sf.suite()
	if err != nil {
		return err
	}
	if *commit == "" {
		*commit = gitCommit()
	}
	ctx, stop := experiment.NotifyShutdown(context.Background(), os.Stderr)
	defer stop()
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		st.Obs = experiment.Obs()
		ctx = experiment.WithCellStore(ctx, st.Cells())
	}
	art, err := bench.Collect(ctx, bench.CollectOptions{
		Suite:  suite,
		Config: cfg,
		Runs:   *sf.runs,
		Seed:   *sf.seed,
		Commit: *commit,

		Throughput: *throughput,

		Adaptive:  *adaptive,
		TargetRel: *target,
		MaxRuns:   *maxRuns,
		BatchRuns: *batch,
	})
	if errors.Is(err, experiment.ErrStopped) && *storeDir != "" {
		fmt.Fprintf(os.Stderr, "szgate: completed cells are in %s; rerun with -store %s\n", *storeDir, *storeDir)
	}
	if err != nil {
		return err
	}
	if *out == "-" {
		return art.Write(os.Stdout)
	}
	if err := art.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "szgate: wrote %s (%d benchmarks)\n", *out, len(art.Benchmarks))
	return nil
}

// cmdCompare gates new.json against old.json and returns the process exit
// code: exitOK (pass), exitGateFail (statistically confirmed regression),
// or exitInfra (unreadable artifact, schema mismatch, incomparable
// configurations — a broken run, not a regression). Separated from main
// and parameterized on the output writer so tests can drive it.
func cmdCompare(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("szgate compare", flag.ContinueOnError)
	alpha := fs.Float64("alpha", 0.05, "significance level for BH-corrected p-values")
	threshold := fs.Float64("threshold", 0.01, "minimum slowdown a significant regression needs to fail the gate")
	boot := fs.Int("boot", 2000, "bootstrap replicates")
	confidence := fs.Float64("confidence", 0.95, "bootstrap CI level")
	seed := fs.Uint64("seed", 1, "bootstrap seed")
	storeDir := fs.String("store", "", "assemble the new artifact from this result store (store-only) instead of a new.json file; the collection flags select its cells")
	sf := addSpecFlags(fs, "collect-seed")
	commit := fs.String("commit", "", "commit label for the store-assembled artifact")
	if err := fs.Parse(args); err != nil {
		return exitInfra, nil // flag package already printed the problem
	}
	var new *bench.Artifact
	var err error
	switch {
	case *storeDir != "":
		if fs.NArg() != 1 {
			return exitInfra, fmt.Errorf("usage: szgate compare -store dir [collection flags] old.json")
		}
		// A cell missing from the store is infrastructure (the campaign that
		// should have filled it did not run), never a gate verdict.
		new, err = storeArtifact(context.Background(), *storeDir, sf, *commit)
		if err != nil {
			return exitInfra, err
		}
	default:
		if fs.NArg() != 2 {
			return exitInfra, fmt.Errorf("usage: szgate compare [flags] old.json new.json")
		}
		new, err = bench.ReadFile(fs.Arg(1))
		if err != nil {
			return exitInfra, err
		}
	}
	old, err := bench.ReadFile(fs.Arg(0))
	if err != nil {
		return exitInfra, err
	}
	rep, err := gate.Compare(old, new, gate.Options{
		Alpha: *alpha, Threshold: *threshold,
		Bootstrap: *boot, Confidence: *confidence, Seed: *seed,
	})
	if err != nil {
		// Compare only rejects inputs it cannot soundly gate (different
		// configurations, disjoint benchmarks): infrastructure, not a
		// performance verdict.
		return exitInfra, err
	}
	fmt.Fprint(w, rep.Table())
	if rep.Fail {
		return exitGateFail, nil
	}
	return exitOK, nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("szgate show", flag.ExitOnError)
	storeDir := fs.String("store", "", "assemble the artifact from this result store (store-only; the collection flags select its cells) instead of reading a file")
	sf := addSpecFlags(fs, "seed")
	fs.Parse(args)
	var art *bench.Artifact
	var err error
	name := ""
	if *storeDir != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: szgate show -store dir [collection flags]")
		}
		art, err = storeArtifact(context.Background(), *storeDir, sf, "")
		name = *storeDir + " (store)"
	} else {
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: szgate show artifact.json")
		}
		name = fs.Arg(0)
		art, err = bench.ReadFile(name)
	}
	if err != nil {
		return err
	}
	m := art.Meta
	fmt.Printf("artifact: %s  schema %d\n", name, m.Schema)
	fmt.Printf("config:   scale %g  %s  %s  noise %g  seed %d", m.Scale, m.Level, m.Stabilizer, m.Noise, m.Seed)
	if m.Commit != "" {
		fmt.Printf("  commit %s", m.Commit)
	}
	fmt.Printf("  (%s)\n", m.Unit)
	fmt.Printf("%-12s %5s %12s %12s %8s %10s\n", "Benchmark", "runs", "mean (s)", "median (s)", "cv", "stopped")
	for _, b := range art.Benchmarks {
		mean := stats.Mean(b.Seconds)
		cv := stats.StdDev(b.Seconds) / mean
		stopped := b.Stopped
		if stopped == "" {
			stopped = bench.StoppedFixed
		}
		fmt.Printf("%-12s %5d %12.6f %12.6f %7.3f%% %10s\n",
			b.Name, b.Runs, mean, stats.Median(b.Seconds), cv*100, stopped)
		if p := b.Provenance; p != nil {
			// Present only on farm artifacts fetched with -provenance: the
			// cell's measurement pedigree, non-golden by construction.
			switch {
			case p.StoreHit:
				fmt.Printf("  provenance: store hit  trace %s\n", p.Trace)
			default:
				fmt.Printf("  provenance: worker %s via %s (epoch %d)  attempts %d  queue_wait %.2fs  run %.2fs  trace %s\n",
					p.Worker, p.Coordinator, p.Epoch, p.Attempts, p.QueueWaitSeconds, p.RunSeconds, p.Trace)
			}
		}
	}
	return nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("szgate merge", flag.ExitOnError)
	out := fs.String("o", "-", "output artifact path (- for stdout)")
	fs.Parse(args)
	if fs.NArg() < 2 {
		return fmt.Errorf("usage: szgate merge -o out.json a.json b.json [c.json ...]")
	}
	acc, err := bench.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, path := range fs.Args()[1:] {
		next, err := bench.ReadFile(path)
		if err != nil {
			return err
		}
		if acc, err = bench.Merge(acc, next); err != nil {
			return err
		}
	}
	if *out == "-" {
		return acc.Write(os.Stdout)
	}
	return acc.WriteFile(*out)
}

// pickSuite resolves -bench/-cxx into a benchmark list, rejecting unknown
// names with the valid set.
func pickSuite(names string, cxx bool) ([]spec.Benchmark, error) {
	suite := spec.Suite()
	if cxx {
		suite = spec.FullSuite()
	}
	if names == "" {
		return suite, nil
	}
	byName := map[string]spec.Benchmark{}
	var valid []string
	for _, b := range suite {
		byName[b.Name] = b
		valid = append(valid, b.Name)
	}
	var out []spec.Benchmark
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		b, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q; valid: %s", n, strings.Join(valid, ", "))
		}
		out = append(out, b)
	}
	return out, nil
}

// gitCommit best-effort labels artifacts with the working tree's revision.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
