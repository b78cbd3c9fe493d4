// Package gate compares two benchmark artifacts the way the paper says
// performance should be compared: with a test chosen by a normality screen,
// an effect-size point estimate wrapped in bootstrap confidence intervals
// (Kalibera & Jones), and multiple-comparison correction across the suite.
// The verdict feeds CI: the gate fails iff a statistically significant
// regression exceeds a configurable threshold.
package gate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/stats"
)

// Verdict classifies one benchmark's old-vs-new comparison.
type Verdict string

const (
	// Improved: the corrected test rejects equality and the BCa interval
	// on the speedup lies entirely above 1.
	Improved Verdict = "improved"
	// Regressed: the corrected test rejects equality and the BCa interval
	// lies entirely below 1.
	Regressed Verdict = "regressed"
	// Indistinguishable: everything else — the honest default the paper
	// argues most "wins" actually are.
	Indistinguishable Verdict = "indistinguishable"
)

// Options configures a comparison.
type Options struct {
	// Alpha is the family-wise significance level applied to the
	// BH-corrected p-values (default 0.05).
	Alpha float64
	// Threshold is the minimum point-estimate slowdown (new/old - 1) a
	// significant regression needs before it fails the gate (default 0.01:
	// a statistically real but sub-1% regression warns without failing).
	Threshold float64
	// Confidence is the bootstrap CI level (default 0.95).
	Confidence float64
	// Bootstrap is the resampling replicate count (default 2000).
	Bootstrap int
	// Seed drives the bootstrap resampling (default 1); the comparison is
	// deterministic given the artifacts and this seed.
	Seed uint64
	// ShapiroAlpha is the normality-screen level choosing Welch-t vs
	// Mann-Whitney (default 0.05, as in §6).
	ShapiroAlpha float64
}

func (o *Options) defaults() {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.Threshold == 0 {
		o.Threshold = 0.01
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Bootstrap == 0 {
		o.Bootstrap = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ShapiroAlpha == 0 {
		o.ShapiroAlpha = 0.05
	}
}

// Row is one benchmark's comparison.
type Row struct {
	Benchmark        string
	OldRuns, NewRuns int
	OldMean, NewMean float64
	// Speedup is mean(old)/mean(new): above 1 the new artifact is faster.
	Speedup float64
	// Percentile and BCa are bootstrap confidence intervals on Speedup.
	Percentile, BCa stats.Interval
	// Test names the significance test the normality screen picked:
	// "welch-t" when both samples pass Shapiro-Wilk, "mann-whitney"
	// otherwise.
	Test string
	// P is the raw p-value; PAdj is after Benjamini-Hochberg across the
	// suite.
	P, PAdj float64
	// CohensD and CliffsDelta measure the effect size of new relative to
	// old: positive values mean the new samples are larger (slower).
	CohensD, CliffsDelta float64
	Verdict              Verdict
}

// Slowdown returns the point-estimate relative slowdown of new vs old
// (positive = slower).
func (r Row) Slowdown() float64 { return r.NewMean/r.OldMean - 1 }

// FailsGate reports whether this row alone would fail the gate at the given
// threshold.
func (r Row) FailsGate(threshold float64) bool {
	return r.Verdict == Regressed && r.Slowdown() > threshold
}

// Report is a full artifact comparison.
type Report struct {
	Rows []Row
	// OnlyOld and OnlyNew list benchmarks present in just one artifact
	// (skipped, but surfaced so a silently shrinking suite is visible).
	OnlyOld, OnlyNew []string
	Alpha, Threshold float64
	Confidence       float64
	// Failures counts rows that fail the gate; Fail is Failures > 0.
	Failures int
	Fail     bool
}

// Compare evaluates the new artifact against the old baseline. Both must
// carry the same unit and collection configuration (scale, level,
// stabilizer) — comparing across configurations answers a different
// question than "did this commit regress performance".
func Compare(old, new *bench.Artifact, opts Options) (*Report, error) {
	opts.defaults()
	if err := comparable(old, new); err != nil {
		return nil, err
	}
	rep := &Report{Alpha: opts.Alpha, Threshold: opts.Threshold, Confidence: opts.Confidence}

	var names []string
	for _, b := range old.Benchmarks {
		if new.Find(b.Name) != nil {
			names = append(names, b.Name)
		} else {
			rep.OnlyOld = append(rep.OnlyOld, b.Name)
		}
	}
	for _, b := range new.Benchmarks {
		if old.Find(b.Name) == nil {
			rep.OnlyNew = append(rep.OnlyNew, b.Name)
		}
	}
	sort.Strings(names)

	for _, name := range names {
		ob, nb := old.Find(name), new.Find(name)
		rep.Rows = append(rep.Rows, compareOne(ob, nb, opts))
	}

	// Correct across the whole suite, then assign verdicts.
	ps := make([]float64, len(rep.Rows))
	for i, r := range rep.Rows {
		ps[i] = r.P
	}
	adj := stats.BenjaminiHochberg(ps)
	for i := range rep.Rows {
		r := &rep.Rows[i]
		r.PAdj = adj[i]
		r.Verdict = verdict(*r, opts.Alpha)
		if r.FailsGate(opts.Threshold) {
			rep.Failures++
		}
	}
	rep.Fail = rep.Failures > 0
	return rep, nil
}

// comparable rejects artifact pairs whose samples measure different things.
func comparable(old, new *bench.Artifact) error {
	mo, mn := old.Meta, new.Meta
	mo.Commit, mn.Commit = "", ""
	mo.Seed, mn.Seed = 0, 0       // different seeds are fine: independent samples
	mo.Schema, mn.Schema = 0, 0   // a schema-1 baseline stays comparable to schema-2 artifacts
	mo.Engine, mn.Engine = "", "" // engines produce identical samples; the tag is informational
	if mo != mn {
		return fmt.Errorf("gate: artifacts are not comparable (unit/scale/level/stabilizer/noise differ):\n  old: %+v\n  new: %+v", mo, mn)
	}
	return nil
}

func compareOne(ob, nb *bench.Benchmark, opts Options) Row {
	row := Row{
		Benchmark: ob.Name,
		OldRuns:   ob.Runs, NewRuns: nb.Runs,
		OldMean: stats.Mean(ob.Seconds), NewMean: stats.Mean(nb.Seconds),
		CohensD:     stats.CohensD(ob.Seconds, nb.Seconds),
		CliffsDelta: stats.CliffsDelta(ob.Seconds, nb.Seconds),
	}
	row.Speedup = row.OldMean / row.NewMean

	// §6's screening: parametric only when both samples look normal.
	normalOld := stats.ShapiroWilk(ob.Seconds).P >= opts.ShapiroAlpha
	normalNew := stats.ShapiroWilk(nb.Seconds).P >= opts.ShapiroAlpha
	var tr stats.TestResult
	if normalOld && normalNew {
		row.Test = "welch-t"
		tr = stats.WelchT(ob.Seconds, nb.Seconds)
	} else {
		row.Test = "mann-whitney"
		tr = stats.MannWhitneyU(ob.Seconds, nb.Seconds)
	}
	row.P = tr.P

	// Bootstrap the speedup. The seed mixes in the benchmark name so every
	// row resamples independently but reproducibly.
	row.Percentile, row.BCa = stats.BootstrapRatioCI(
		ob.Seconds, nb.Seconds, opts.Bootstrap, opts.Confidence, rowSeed(opts.Seed, ob.Name))
	return row
}

// rowSeed derives a per-benchmark bootstrap seed (FNV-1a over the name).
func rowSeed(seed uint64, name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ h
}

// verdict requires the corrected test and the BCa interval to agree before
// calling a difference real — the gate's guard against the bare-p-value
// reasoning the paper criticizes.
func verdict(r Row, alpha float64) Verdict {
	if math.IsNaN(r.PAdj) || r.PAdj >= alpha {
		return Indistinguishable
	}
	switch {
	case r.BCa.Lo > 1:
		return Improved
	case r.BCa.Hi < 1:
		return Regressed
	default:
		return Indistinguishable
	}
}

// Table renders the comparison in the repo's table style.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Regression gate: speedup = old/new with %g%% BCa bootstrap CIs, BH-corrected at α = %g\n",
		r.Confidence*100, r.Alpha)
	fmt.Fprintf(&sb, "%-12s %5s %9s %21s %13s %9s %9s %8s %7s  %s\n",
		"Benchmark", "runs", "speedup", "BCa CI", "test", "p", "p(adj)", "d", "δ", "verdict")
	for _, row := range r.Rows {
		mark := " "
		if row.FailsGate(r.Threshold) {
			mark = "!"
		}
		fmt.Fprintf(&sb, "%-12s %5d %9.4f [%9.4f,%9.4f] %13s %9.4f %9.4f %8.2f %7.2f  %s%s\n",
			row.Benchmark, row.NewRuns, row.Speedup, row.BCa.Lo, row.BCa.Hi,
			row.Test, row.P, row.PAdj, row.CohensD, row.CliffsDelta, row.Verdict, mark)
	}
	if len(r.OnlyOld) > 0 {
		fmt.Fprintf(&sb, "only in baseline (skipped): %s\n", strings.Join(r.OnlyOld, ", "))
	}
	if len(r.OnlyNew) > 0 {
		fmt.Fprintf(&sb, "only in head (skipped): %s\n", strings.Join(r.OnlyNew, ", "))
	}
	improved, regressed := 0, 0
	for _, row := range r.Rows {
		switch row.Verdict {
		case Improved:
			improved++
		case Regressed:
			regressed++
		}
	}
	fmt.Fprintf(&sb, "%d improved, %d regressed, %d indistinguishable of %d compared\n",
		improved, regressed, len(r.Rows)-improved-regressed, len(r.Rows))
	if r.Failures > 0 {
		fmt.Fprintf(&sb, "GATE FAIL: %d regression(s) above the %+.1f%% threshold (marked !)\n",
			r.Failures, r.Threshold*100)
	} else {
		fmt.Fprintf(&sb, "GATE PASS: no corrected regression above the %+.1f%% threshold\n",
			r.Threshold*100)
	}
	return sb.String()
}
