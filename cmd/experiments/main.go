// Command experiments regenerates every table and figure from the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	linkorder  — §1's link-order bias measurement
//	envsize    — §1's environment-size bias (Mytkowicz et al.)
//	nist       — §3.2's randomness table
//	normality  — Table 1 + Figure 5 (Shapiro-Wilk / Brown-Forsythe / QQ)
//	overhead   — Figure 6 (overhead by randomization combination)
//	speedup    — Figure 7 + §6.1 ANOVA (-O2 vs -O1, -O3 vs -O2)
//	interval   — ablation: §4's periods-per-run normality claim
//	adaptive   — ablation: §8's counter-triggered re-randomization
//	phases     — §4's phase-behavior claim (trace + normality)
//	deployment — §1's suggested deployment-time outlier-reduction use case
//	shuffledepth — ablation: §3.2's shuffling-depth cost claim
//
// Usage:
//
//	experiments [-only name[,name...]] [-quick] [-scale f] [-runs n]
//	            [-seed n] [-qq benchmark] [-j n] [-progress=false]
//	            [-checkpoint dir] [-resume dir] [-cell-timeout d] [-retries n]
//	            [-verify-semantics [-verify-O 0,1,2,3]]
//	            [-metrics file [-metrics-full]] [-trace file]
//	            [-log file [-log-level lvl]]
//
// With -verify-semantics, the semantic-invariance oracle sweeps every
// benchmark across seeds, optimization levels, and heap allocators before
// any experiment runs, aborting with a divergence report if randomization
// is observable to any program.
//
// Runs execute in parallel (-j workers, or SZ_PARALLEL, or GOMAXPROCS);
// results are bit-identical at every worker count because each run is fully
// determined by its seed.
//
// Long campaigns are crash-safe: with -checkpoint (or -resume) the
// directory is a result store (internal/store) and every completed cell is
// written to it, the first SIGINT/SIGTERM drains in-flight cells and
// stores them before exiting with status 130, and -resume <dir> replays
// completed cells — same-seed determinism makes the resumed output
// byte-identical to an uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/oracle"
	"repro/internal/spec"
	"repro/internal/store"
)

// experimentNames is the valid -only vocabulary; unknown names are rejected
// up front instead of silently running nothing.
var experimentNames = []string{
	"linkorder", "envsize", "nist", "normality", "overhead", "speedup",
	"interval", "shuffledepth", "adaptive", "deployment", "phases",
}

func main() {
	only := flag.String("only", "", "comma-separated experiment subset (default: all)")
	quick := flag.Bool("quick", false, "reduced scale and run counts (CI mode)")
	scale := flag.Float64("scale", 1.0, "workload scale")
	runs := flag.Int("runs", 30, "runs per configuration")
	seed := flag.Uint64("seed", 2013, "master seed")
	qq := flag.String("qq", "", "also print Figure 5 QQ data for this benchmark")
	csvDir := flag.String("csv", "", "also write each experiment's data as CSV into this directory")
	svgDir := flag.String("svg", "", "also render figures as SVG into this directory")
	charts := flag.Bool("charts", false, "also render bar-chart views of the figures")
	cxx := flag.Bool("cxx", false, "include the five C++ benchmarks the paper omitted (exception support implemented here)")
	list := flag.Bool("list", false, "list the available experiments")
	jobs := flag.Int("j", 0, "parallel workers (0 = $SZ_PARALLEL or GOMAXPROCS, 1 = sequential); identical results at any value")
	progress := flag.Bool("progress", true, "write per-cell progress/throughput lines to stderr")
	checkpoint := flag.String("checkpoint", "", "store completed cells in this result-store directory (crash-safe; enables -resume later)")
	resume := flag.String("resume", "", "resume from this result-store directory, skipping completed cells (implies -checkpoint)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell watchdog deadline (0 = derive from -scale, negative = off)")
	retries := flag.Int("retries", -1, "retries per cell after a transient failure or timeout (negative = default)")
	verify := flag.Bool("verify-semantics", false, "pre-flight: run the semantic-invariance oracle over the suite before any experiment; abort on divergence")
	verifyO := flag.String("verify-O", "0,1,2,3", "comma-separated optimization levels the pre-flight sweeps")
	metricsOut := flag.String("metrics", "", "write an engine-metrics snapshot (JSON) to this file at exit; golden fields only, byte-identical at any -j")
	metricsFull := flag.Bool("metrics-full", false, "include wall-clock histograms and gauges in -metrics (real but not reproducible)")
	traceOut := flag.String("trace", "", "write engine spans as Chrome trace-event JSON to this file at exit (open in ui.perfetto.dev)")
	logOut := flag.String("log", "", "write the structured JSONL run log to this file")
	logLevel := flag.String("log-level", "info", "minimum -log level: debug, info, warn, error")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		os.Exit(2)
	}
	if *runs < 1 {
		fail("-runs %d: need at least 1 run per configuration", *runs)
	}
	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		fail("-scale %v: must be a positive finite workload scale", *scale)
	}
	// Validate the pre-flight's -O list up front even when -verify-semantics
	// is off, so a typo fails fast instead of after a long campaign.
	var verifyLevels []compiler.OptLevel
	for _, part := range strings.Split(*verifyO, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fail("-verify-O %q: %v", *verifyO, err)
		}
		lv, err := compiler.ParseLevel(n)
		if err != nil {
			fail("-verify-O: %v", err)
		}
		verifyLevels = append(verifyLevels, lv)
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
		fail("%v", err)
	}

	if *list {
		fmt.Println(`linkorder     E1: link-order bias (§1)
envsize       E2: environment-size bias (§1, Mytkowicz et al.)
nist          E3: randomness of heap addresses (§3.2)
normality     E4+E5: Table 1 and Figure 5 (Shapiro-Wilk, Brown-Forsythe, QQ)
overhead      E6: Figure 6 (overhead by randomization combination)
speedup       E7+E8: Figure 7 and the §6.1 ANOVA
interval      E9: ablation — randomization periods vs normality (§4)
shuffledepth  E10: ablation — shuffle depth and heap substrates (§3.2, §7)
adaptive      E11: extension — counter-triggered re-randomization (§8)
deployment    E13: extension — deployment-time outlier reduction (§1)
phases        E14: extension — phase behavior under re-randomization (§4)`)
		return
	}

	suite := spec.Suite()
	if *cxx {
		suite = spec.FullSuite()
	}

	if *quick {
		*scale = 0.25
		if *runs > 15 {
			*runs = 15
		}
	}

	// Fault-tolerance policy: watchdog deadline (after -quick has settled
	// the scale), retry budget, shutdown signals, and the result store.
	switch {
	case *cellTimeout > 0:
		experiment.SetCellTimeout(*cellTimeout)
	case *cellTimeout == 0:
		experiment.SetCellTimeout(experiment.DefaultCellTimeout(*scale))
	default:
		experiment.SetCellTimeout(0)
	}
	experiment.SetCellRetries(*retries)

	ctx, stop := experiment.NotifyShutdown(context.Background(), os.Stderr)
	defer stop()

	ckptDir := *checkpoint
	if *resume != "" {
		if ckptDir != "" && ckptDir != *resume {
			fail("-resume %s and -checkpoint %s name different directories", *resume, ckptDir)
		}
		ckptDir = *resume
	}
	var ckpt *store.Store
	if ckptDir != "" {
		var err error
		ckpt, err = store.Open(ckptDir)
		if err != nil {
			fail("%v", err)
		}
		ckpt.Obs = experiment.Obs()
		ctx = experiment.WithCellStore(ctx, ckpt.Cells())
	}

	// Semantic-invariance pre-flight: the experiments measure *performance*
	// across random layouts, and every statistic downstream assumes layout
	// never leaks into behaviour. -verify-semantics proves that assumption
	// on this build before spending hours measuring it.
	if *verify {
		fmt.Println("==== verify-semantics (pre-flight) ====")
		start := time.Now()
		rep, err := oracle.VerifySemantics(ctx, suite, oracle.VerifyOptions{
			Scale:   *scale,
			Workers: *jobs,
			Matrix:  oracle.Options{Levels: verifyLevels},
		})
		if err != nil {
			fail("verify-semantics: %v", err)
		}
		fmt.Print(rep)
		if rep.Failed() {
			fmt.Fprintln(os.Stderr, "experiments: semantic-invariance verification failed; not running experiments on a build whose behaviour depends on layout")
			os.Exit(1)
		}
		fmt.Printf("all %d cells agree (verify-semantics in %s)\n\n", rep.Cells, time.Since(start).Round(time.Millisecond))
	}

	valid := map[string]bool{}
	for _, n := range experimentNames {
		valid[n] = true
	}
	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if !valid[n] {
				sorted := append([]string(nil), experimentNames...)
				sort.Strings(sorted)
				fail("-only %q: unknown experiment; valid names: %s", n, strings.Join(sorted, ", "))
			}
			want[n] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	// report prints the end-of-campaign telemetry — cells that needed
	// retries, stored and reused cells — and flushes the -metrics/-trace/-log
	// artifacts. It runs on every exit path, so an interrupted or failed
	// campaign still leaves its telemetry behind.
	report := func() {
		if r := experiment.RetryReport(); r != "" {
			fmt.Fprint(os.Stderr, r)
		}
		if ckpt != nil {
			reused, _, stored := ckpt.Stats()
			fmt.Fprintf(os.Stderr, "checkpoint %s: %d cells stored, %d reused\n", ckpt.Dir(), stored, reused)
		}
		if err := flushObs(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing telemetry: %v\n", err)
		}
	}

	run := func(name string, f func() error) {
		if !enabled(name) {
			return
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			if errors.Is(err, experiment.ErrStopped) || errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted: %v\n", name, err)
				if ckpt != nil {
					fmt.Fprintf(os.Stderr, "experiments: completed cells are saved; rerun with -resume %s to continue\n", ckpt.Dir())
				}
				report()
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			report()
			os.Exit(1)
		}
		fmt.Printf("(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	defer report()

	run("linkorder", func() error {
		r, err := experiment.LinkOrder(ctx, experiment.LinkOrderOptions{
			Scale: *scale, Seed: *seed, Orders: 32, Runs: 3,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		if *charts {
			fmt.Print(r.Chart())
		}
		return maybeCSV(*csvDir, r.WriteCSV)
	})

	run("envsize", func() error {
		r, err := experiment.EnvSize(ctx, experiment.EnvSizeOptions{
			Scale: *scale, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		return maybeCSV(*csvDir, r.WriteCSV)
	})

	run("nist", func() error {
		r, err := experiment.NIST(ctx, experiment.NISTOptions{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		return maybeCSV(*csvDir, r.WriteCSV)
	})

	run("normality", func() error {
		r, err := experiment.Normality(ctx, experiment.NormalityOptions{
			Scale: *scale, Runs: *runs, Seed: *seed, Suite: suite,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		fmt.Println(r.Summary())
		if *qq != "" {
			fmt.Print(r.QQFigure(*qq))
		}
		if err := maybeCSV(*svgDir, r.WriteSVG); err != nil {
			return err
		}
		return maybeCSV(*csvDir, r.WriteCSV)
	})

	run("overhead", func() error {
		r, err := experiment.Overhead(ctx, experiment.OverheadOptions{
			Scale: *scale, Runs: *runs, Seed: *seed, Suite: suite,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Figure())
		if *charts {
			fmt.Print(r.Chart())
		}
		if err := maybeCSV(*svgDir, r.WriteSVG); err != nil {
			return err
		}
		return maybeCSV(*csvDir, r.WriteCSV)
	})

	run("interval", func() error {
		r, err := experiment.RerandInterval(ctx, experiment.IntervalAblationOptions{
			Scale: *scale, Runs: *runs, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		if err := maybeCSV(*svgDir, r.WriteSVG); err != nil {
			return err
		}
		return maybeCSV(*csvDir, r.WriteCSV)
	})

	run("shuffledepth", func() error {
		r, err := experiment.ShuffleDepth(ctx, experiment.ShuffleDepthOptions{
			Scale: *scale, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		return maybeCSV(*csvDir, r.WriteCSV)
	})

	run("deployment", func() error {
		r, err := experiment.Deployment(ctx, experiment.DeploymentOptions{
			Scale: *scale, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		return nil
	})

	run("phases", func() error {
		r, err := experiment.Phases(ctx, experiment.PhasesOptions{
			Scale: *scale, Runs: *runs, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		return nil
	})

	run("adaptive", func() error {
		r, err := experiment.Adaptive(ctx, experiment.AdaptiveOptions{
			Scale: *scale, Runs: *runs, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Table())
		return maybeCSV(*csvDir, r.WriteCSV)
	})

	run("speedup", func() error {
		r, err := experiment.Speedup(ctx, experiment.SpeedupOptions{
			Scale: *scale, Runs: *runs, Seed: *seed, Suite: suite,
		})
		if err != nil {
			return err
		}
		fmt.Print(r.Figure())
		fmt.Print(r.ANOVATable())
		if *charts {
			fmt.Print(r.Chart())
		}
		if err := maybeCSV(*svgDir, r.WriteSVG); err != nil {
			return err
		}
		return maybeCSV(*csvDir, r.WriteCSV)
	})
}

// maybeCSV invokes the writer when a CSV directory was requested.
func maybeCSV(dir string, write func(string) error) error {
	if dir == "" {
		return nil
	}
	return write(dir)
}
