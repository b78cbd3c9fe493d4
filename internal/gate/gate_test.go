package gate

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/stats"
)

// synthetic builds an artifact whose benchmarks each carry n deterministic
// normal-shaped samples around the given means.
func synthetic(n int, means map[string]float64) *bench.Artifact {
	a := &bench.Artifact{
		Meta: bench.Meta{Schema: bench.SchemaVersion, Unit: bench.UnitSimulatedSeconds,
			Seed: 1, Scale: 1, Level: "-O2", Stabilizer: "native", Noise: 0.0025},
	}
	for name, mu := range means {
		xs := make([]float64, n)
		for i := range xs {
			p := (float64(i) + 0.5) / float64(n)
			xs[i] = mu * (1 + 0.0025*stats.NormalQuantile(p))
		}
		a.Benchmarks = append(a.Benchmarks, bench.Benchmark{
			Name: name, SeedBase: 0, Runs: n, Seconds: xs,
		})
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// scaled returns a copy of the artifact with every sample multiplied by f.
func scaled(a *bench.Artifact, f float64, only ...string) *bench.Artifact {
	buf, err := a.Encode()
	if err != nil {
		panic(err)
	}
	out, err := bench.ReadBytes(buf)
	if err != nil {
		panic(err)
	}
	pick := map[string]bool{}
	for _, n := range only {
		pick[n] = true
	}
	for i := range out.Benchmarks {
		if len(only) > 0 && !pick[out.Benchmarks[i].Name] {
			continue
		}
		for j := range out.Benchmarks[i].Seconds {
			out.Benchmarks[i].Seconds[j] *= f
		}
	}
	return out
}

func TestIdenticalArtifactsPass(t *testing.T) {
	a := synthetic(20, map[string]float64{"astar": 0.5, "mcf": 1.2, "lbm": 2.0})
	rep, err := Compare(a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fail || rep.Failures != 0 {
		t.Fatalf("identical artifacts failed the gate: %s", rep.Table())
	}
	for _, r := range rep.Rows {
		if r.Verdict != Indistinguishable {
			t.Errorf("%s: verdict %s on identical samples", r.Benchmark, r.Verdict)
		}
		if r.Speedup != 1 {
			t.Errorf("%s: speedup %v on identical samples", r.Benchmark, r.Speedup)
		}
		if !r.BCa.Contains(1) || !r.Percentile.Contains(1) {
			t.Errorf("%s: CI excludes 1 on identical samples: %+v %+v", r.Benchmark, r.BCa, r.Percentile)
		}
	}
}

func TestInjectedSlowdownRegresses(t *testing.T) {
	old := synthetic(20, map[string]float64{"astar": 0.5, "mcf": 1.2, "lbm": 2.0})
	new := scaled(old, 1.05, "mcf")
	rep, err := Compare(old, new, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mcf *Row
	for i := range rep.Rows {
		if rep.Rows[i].Benchmark == "mcf" {
			mcf = &rep.Rows[i]
		} else if rep.Rows[i].Verdict != Indistinguishable {
			t.Errorf("%s: verdict %s, want indistinguishable", rep.Rows[i].Benchmark, rep.Rows[i].Verdict)
		}
	}
	if mcf == nil {
		t.Fatal("mcf row missing")
	}
	if mcf.Verdict != Regressed {
		t.Fatalf("mcf verdict = %s, want regressed\n%s", mcf.Verdict, rep.Table())
	}
	if mcf.PAdj >= 0.05 {
		t.Errorf("mcf adjusted p = %v, want < 0.05", mcf.PAdj)
	}
	if mcf.BCa.Contains(1) || mcf.BCa.Hi >= 1 {
		t.Errorf("mcf BCa CI %+v should lie entirely below 1", mcf.BCa)
	}
	if got := mcf.Slowdown(); math.Abs(got-0.05) > 0.005 {
		t.Errorf("mcf slowdown = %v, want ~0.05", got)
	}
	if mcf.CohensD <= 0 || mcf.CliffsDelta <= 0 {
		t.Errorf("effect sizes should be positive for a slowdown: d=%v δ=%v", mcf.CohensD, mcf.CliffsDelta)
	}
	if !rep.Fail || rep.Failures != 1 {
		t.Errorf("gate: fail=%v failures=%d, want one failure", rep.Fail, rep.Failures)
	}
	if !strings.Contains(rep.Table(), "GATE FAIL") {
		t.Errorf("table missing GATE FAIL:\n%s", rep.Table())
	}
}

func TestImprovementDoesNotFail(t *testing.T) {
	old := synthetic(20, map[string]float64{"astar": 0.5, "mcf": 1.2})
	new := scaled(old, 1/1.05, "mcf")
	rep, err := Compare(old, new, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.Benchmark == "mcf" && r.Verdict != Improved {
			t.Errorf("mcf verdict = %s, want improved", r.Verdict)
		}
	}
	if rep.Fail {
		t.Errorf("an improvement failed the gate:\n%s", rep.Table())
	}
}

func TestThresholdGatesSmallRegressions(t *testing.T) {
	old := synthetic(30, map[string]float64{"mcf": 1.0})
	new := scaled(old, 1.02, "mcf")
	// 2% real slowdown: significant, but below a 5% threshold.
	rep, err := Compare(old, new, Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows[0].Verdict != Regressed {
		t.Fatalf("verdict = %s, want regressed", rep.Rows[0].Verdict)
	}
	if rep.Fail {
		t.Errorf("sub-threshold regression failed the gate:\n%s", rep.Table())
	}
	// The default 1% threshold does fail it.
	rep, err = Compare(old, new, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fail {
		t.Errorf("2%% regression passed the default gate:\n%s", rep.Table())
	}
}

func TestIncomparableAndPartialArtifacts(t *testing.T) {
	a := synthetic(10, map[string]float64{"astar": 0.5, "mcf": 1.2})
	b := synthetic(10, map[string]float64{"mcf": 1.2, "lbm": 2.0})
	rep, err := Compare(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Benchmark != "mcf" {
		t.Errorf("rows = %+v, want just mcf", rep.Rows)
	}
	if len(rep.OnlyOld) != 1 || rep.OnlyOld[0] != "astar" ||
		len(rep.OnlyNew) != 1 || rep.OnlyNew[0] != "lbm" {
		t.Errorf("OnlyOld=%v OnlyNew=%v", rep.OnlyOld, rep.OnlyNew)
	}

	c := synthetic(10, map[string]float64{"astar": 0.5})
	c.Meta.Scale = 0.5
	if _, err := Compare(a, c, Options{}); err == nil {
		t.Error("comparing artifacts at different scales should error")
	}
	c = synthetic(10, map[string]float64{"astar": 0.5})
	c.Meta.Stabilizer = "stab:code"
	if _, err := Compare(a, c, Options{}); err == nil {
		t.Error("comparing native vs stabilized artifacts should error")
	}
	// A different master seed is fine: independent samples, same question.
	c = synthetic(10, map[string]float64{"astar": 0.5})
	c.Meta.Seed = 999
	if _, err := Compare(a, c, Options{}); err != nil {
		t.Errorf("different seeds should be comparable: %v", err)
	}
}

// TestEngineTagsStayComparable pins that differing engine tags alone never
// make two artifacts incomparable, and that host times never enter a
// verdict: both engines collect identical samples, so the tag and the host
// times are informational. The pair has CI's shape: a walk baseline
// carrying host times against a compiled head without them.
func TestEngineTagsStayComparable(t *testing.T) {
	old := synthetic(10, map[string]float64{"astar": 0.5, "mcf": 1.2})
	new := synthetic(10, map[string]float64{"astar": 0.5, "mcf": 1.2})
	old.Meta.Engine, new.Meta.Engine = "walk", "compiled"
	for i := range old.Benchmarks {
		b := &old.Benchmarks[i]
		for range b.Seconds {
			b.HostSeconds = append(b.HostSeconds, 0.05)
		}
	}
	if err := old.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(old, new, Options{})
	if err != nil {
		t.Fatalf("engine tags broke comparability: %v", err)
	}
	if rep.Fail || len(rep.Rows) != 2 {
		t.Fatalf("identical samples under two engine tags: %s", rep.Table())
	}
	for _, row := range rep.Rows {
		if row.Verdict != Indistinguishable {
			t.Errorf("%s: verdict %v on identical samples", row.Benchmark, row.Verdict)
		}
	}
}

// TestTableShowsRawAndAdjustedP pins that each row prints its raw p beside
// the Benjamini-Hochberg-adjusted one.
func TestTableShowsRawAndAdjustedP(t *testing.T) {
	rep := &Report{Alpha: 0.05, Threshold: 0.01, Confidence: 0.95, Rows: []Row{{
		Benchmark: "mcf", OldRuns: 8, NewRuns: 8, OldMean: 1, NewMean: 1, Speedup: 1,
		Test: "welch-t", P: 0.0123, PAdj: 0.0369, Verdict: Indistinguishable,
	}}}
	tbl := rep.Table()
	for _, want := range []string{" p ", "p(adj)", "0.0123    0.0369"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestCompareDeterministic(t *testing.T) {
	old := synthetic(15, map[string]float64{"astar": 0.5, "mcf": 1.2})
	new := scaled(old, 1.01)
	r1, err := Compare(old, new, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compare(old, new, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() != r2.Table() {
		t.Error("comparison is not deterministic")
	}
}

// TestFullSuiteSameSeedNoFalsePositives is the acceptance criterion: two
// artifacts collected with the same seed must report zero regressions on
// every benchmark of the suite, and an injected 5% slowdown must be flagged
// with a CI excluding 1.0.
func TestFullSuiteSameSeedNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("collects the full suite")
	}
	opts := bench.CollectOptions{
		Config: experiment.Config{Scale: 0.05, Level: compiler.O2},
		Runs:   8,
		Seed:   2013,
	}
	baseline, err := bench.Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	head, err := bench.Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(baseline, head, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fail {
		t.Fatalf("same-seed comparison failed the gate:\n%s", rep.Table())
	}
	for _, r := range rep.Rows {
		if r.Verdict != Indistinguishable {
			t.Errorf("%s: verdict %s on same-seed samples", r.Benchmark, r.Verdict)
		}
	}
	if len(rep.Rows) != len(baseline.Benchmarks) {
		t.Errorf("compared %d of %d benchmarks", len(rep.Rows), len(baseline.Benchmarks))
	}

	slow := scaled(head, 1.05)
	rep, err = Compare(baseline, slow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fail {
		t.Fatalf("5%% suite-wide slowdown passed the gate:\n%s", rep.Table())
	}
	for _, r := range rep.Rows {
		if r.Verdict != Regressed {
			t.Errorf("%s: verdict %s under a 5%% slowdown", r.Benchmark, r.Verdict)
		}
		if r.PAdj >= 0.05 {
			t.Errorf("%s: adjusted p %v >= 0.05", r.Benchmark, r.PAdj)
		}
		if r.BCa.Hi >= 1 {
			t.Errorf("%s: BCa CI %+v does not exclude 1.0", r.Benchmark, r.BCa)
		}
	}
}
