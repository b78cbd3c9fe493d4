package bench

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"errors"

	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/spec"
	"repro/internal/store"
)

const testScale = 0.05

func testSuite(t *testing.T, names ...string) []spec.Benchmark {
	t.Helper()
	var out []spec.Benchmark
	for _, n := range names {
		b, ok := spec.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %q", n)
		}
		out = append(out, b)
	}
	return out
}

func sampleArtifact() *Artifact {
	return &Artifact{
		Meta: Meta{Schema: SchemaVersion, Unit: UnitSimulatedSeconds, Seed: 7,
			Scale: 0.5, Level: "-O2", Stabilizer: "native", Noise: 0.0025, Commit: "abc123"},
		Benchmarks: []Benchmark{
			{Name: "mcf", SeedBase: 100, Runs: 3, Seconds: []float64{1.25, 1.251, 1.249}, Cycles: []uint64{10, 11, 12}},
			{Name: "astar", SeedBase: 50, Runs: 2, Seconds: []float64{0.5, 0.501}, Cycles: []uint64{5, 6}},
		},
	}
}

func TestArtifactRoundTripByteIdentical(t *testing.T) {
	a := sampleArtifact()
	buf1, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadBytes(buf1)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1, buf2) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", buf1, buf2)
	}
	// Canonical form sorts benchmarks, so add order does not matter.
	if back.Benchmarks[0].Name != "astar" {
		t.Errorf("canonical order: first benchmark = %q, want astar", back.Benchmarks[0].Name)
	}
}

func TestArtifactWriteReadFile(t *testing.T) {
	a := sampleArtifact()
	path := t.TempDir() + "/a.json"
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a.normalize()
	if !reflect.DeepEqual(a, back) {
		t.Errorf("file round trip differs:\n%+v\nvs\n%+v", a, back)
	}
}

func TestArtifactValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Artifact)
		want string
	}{
		{"schema", func(a *Artifact) { a.Meta.Schema = 99 }, "schema"},
		{"unit", func(a *Artifact) { a.Meta.Unit = "" }, "unit"},
		{"dup", func(a *Artifact) { a.Benchmarks[1].Name = "mcf" }, "duplicate"},
		{"runs", func(a *Artifact) { a.Benchmarks[0].Runs = 7 }, "samples"},
		{"cycles", func(a *Artifact) { a.Benchmarks[0].Cycles = a.Benchmarks[0].Cycles[:1] }, "cycle"},
		{"nan", func(a *Artifact) { a.Benchmarks[0].Seconds[0] = math.NaN() }, "sample"},
		{"negative", func(a *Artifact) { a.Benchmarks[0].Seconds[0] = -1 }, "sample"},
	}
	for _, c := range cases {
		a := sampleArtifact()
		c.mut(a)
		err := a.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestMerge(t *testing.T) {
	a := sampleArtifact()
	// A continuation of mcf plus a new benchmark.
	b := &Artifact{
		Meta: a.Meta,
		Benchmarks: []Benchmark{
			{Name: "mcf", SeedBase: 103, Runs: 2, Seconds: []float64{1.252, 1.248}, Cycles: []uint64{13, 14}},
			{Name: "lbm", SeedBase: 900, Runs: 1, Seconds: []float64{2}, Cycles: []uint64{20}},
		},
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Find("mcf"); got == nil || got.Runs != 5 || got.Seconds[3] != 1.252 || got.Cycles[4] != 14 {
		t.Errorf("merged mcf = %+v", got)
	}
	if m.Find("lbm") == nil || m.Find("astar") == nil {
		t.Errorf("merge dropped a benchmark: %+v", m.Benchmarks)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("merged artifact invalid: %v", err)
	}

	// Mismatched configuration refuses.
	c := sampleArtifact()
	c.Meta.Scale = 1.0
	if _, err := Merge(a, c); err == nil {
		t.Error("merge across scales should fail")
	}
	// A shifted master seed is fine when the seed bases continue — that is
	// exactly what `szgate run -seed base+runs` produces for a continuation.
	s := &Artifact{
		Meta: a.Meta,
		Benchmarks: []Benchmark{
			{Name: "mcf", SeedBase: 103, Runs: 1, Seconds: []float64{1.25}, Cycles: []uint64{15}},
		},
	}
	s.Meta.Seed = a.Meta.Seed + 3
	ms, err := Merge(a, s)
	if err != nil {
		t.Fatalf("merge across shifted master seeds: %v", err)
	}
	if ms.Meta.Seed != a.Meta.Seed || ms.Find("mcf").Runs != 4 {
		t.Errorf("shifted-seed merge: seed %d, mcf %+v", ms.Meta.Seed, ms.Find("mcf"))
	}
	// Non-contiguous seed range refuses.
	d := sampleArtifact()
	d.Benchmarks = []Benchmark{{Name: "mcf", SeedBase: 999, Runs: 1, Seconds: []float64{1}, Cycles: []uint64{1}}}
	if _, err := Merge(a, d); err == nil {
		t.Error("merge of a non-continuation seed range should fail")
	}
	// Differing commits refuse unless one is empty.
	e := sampleArtifact()
	e.Benchmarks = nil
	e.Meta.Commit = "zzz"
	if _, err := Merge(a, e); err == nil {
		t.Error("merge across commits should fail")
	}
	e.Meta.Commit = ""
	m2, err := Merge(a, e)
	if err != nil || m2.Meta.Commit != "abc123" {
		t.Errorf("merge with empty commit: %v, commit %q", err, m2.Meta.Commit)
	}
}

// TestMergeDuplicateBlocks pins that merging an artifact with itself — the
// same sample block for the same cell twice — is refused rather than
// silently double-counted: the duplicate's seed base is not a continuation.
func TestMergeDuplicateBlocks(t *testing.T) {
	a := sampleArtifact()
	if _, err := Merge(a, a); err == nil {
		t.Fatal("merging an artifact with itself should fail, not double samples")
	}
	// The same holds for a partial overlap: a block that re-covers part of
	// an existing seed range is not a continuation either.
	dup := sampleArtifact()
	dup.Benchmarks = []Benchmark{
		{Name: "mcf", SeedBase: 101, Runs: 2, Seconds: []float64{1.251, 1.249}, Cycles: []uint64{11, 12}},
	}
	if _, err := Merge(a, dup); err == nil {
		t.Fatal("merging an overlapping seed range should fail")
	}
}

// TestMergeMixedEngines pins that continuations may switch engines (the
// engines are sample-equivalent by the oracle's contract) and the merged
// artifact keeps the first artifact's tag.
func TestMergeMixedEngines(t *testing.T) {
	a := sampleArtifact()
	a.Meta.Engine = "walk"
	b := &Artifact{
		Meta: a.Meta,
		Benchmarks: []Benchmark{
			{Name: "mcf", SeedBase: 103, Runs: 1, Seconds: []float64{1.25}, Cycles: []uint64{13}},
		},
	}
	b.Meta.Engine = "compiled"
	m, err := Merge(a, b)
	if err != nil {
		t.Fatalf("cross-engine merge refused: %v", err)
	}
	if m.Meta.Engine != "walk" {
		t.Fatalf("merged engine tag %q, want the first artifact's %q", m.Meta.Engine, "walk")
	}
	if got := m.Find("mcf"); got == nil || got.Runs != 4 {
		t.Fatalf("cross-engine merged mcf = %+v", got)
	}
}

// TestMergeSchema2IntoSchema3 pins the schema lattice: folding an old
// schema-2 artifact into a schema-3 one (disjoint benchmarks, so the
// schema-3-only per-run fields need not align) yields a valid schema-3
// artifact.
func TestMergeSchema2IntoSchema3(t *testing.T) {
	old := sampleArtifact()
	old.Meta.Schema = 2
	old.Meta.Engine = "" // engine tags need schema 3
	newer := &Artifact{
		Meta: old.Meta,
		Benchmarks: []Benchmark{
			{Name: "lbm", SeedBase: 900, Runs: 2, Seconds: []float64{2, 2.01},
				Cycles: []uint64{20, 21}, Instructions: []uint64{200, 201}},
		},
	}
	newer.Meta.Schema = 3
	newer.Meta.Engine = "compiled"
	for _, order := range []struct {
		name string
		a, b *Artifact
	}{{"old first", old, newer}, {"new first", newer, old}} {
		m, err := Merge(order.a, order.b)
		if err != nil {
			t.Fatalf("%s: merge: %v", order.name, err)
		}
		if m.Meta.Schema != 3 {
			t.Fatalf("%s: merged schema %d, want 3 (carries schema-3 fields)", order.name, m.Meta.Schema)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: merged artifact invalid: %v", order.name, err)
		}
		if m.Find("lbm") == nil || m.Find("mcf") == nil {
			t.Fatalf("%s: merge dropped a benchmark", order.name)
		}
	}
}

func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	suite := testSuite(t, "astar", "libquantum")
	opts := CollectOptions{
		Suite:  suite,
		Config: experiment.Config{Scale: testScale, Level: compiler.O2},
		Runs:   6,
		Seed:   2013,
	}
	experiment.SetParallelism(1)
	seq, err := Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	experiment.SetParallelism(4)
	par, err := Collect(context.Background(), opts)
	experiment.SetParallelism(0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := seq.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := par.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("artifact differs between -j 1 and -j 4:\n%s\nvs\n%s", b1, b2)
	}
	if got := seq.Find("astar"); got == nil || got.Runs != 6 || len(got.Cycles) != 6 {
		t.Errorf("astar entry = %+v", got)
	}
	if seq.Meta.Level != "-O2" || seq.Meta.Stabilizer != "native" {
		t.Errorf("meta = %+v", seq.Meta)
	}
}

func TestCollectSeedBaseStableAcrossSubsets(t *testing.T) {
	full := testSuite(t, "astar", "libquantum")
	sub := testSuite(t, "libquantum")
	opts := CollectOptions{
		Suite:  full,
		Config: experiment.Config{Scale: testScale, Level: compiler.O2},
		Runs:   3, Seed: 2013,
	}
	a, err := Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Suite = sub
	b, err := Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Find("libquantum"), b.Find("libquantum")) {
		t.Errorf("libquantum samples depend on which suite subset was collected")
	}
}

func TestCollectAdaptive(t *testing.T) {
	suite := testSuite(t, "astar")
	opts := CollectOptions{
		Suite:    suite,
		Config:   experiment.Config{Scale: testScale, Level: compiler.O2},
		Seed:     2013,
		Adaptive: true, TargetRel: 0.002, Confidence: 0.95,
		BatchRuns: 4, MaxRuns: 40,
	}
	a, err := Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	e := a.Find("astar")
	if e == nil {
		t.Fatal("no astar entry")
	}
	if e.Stopped != StoppedTarget && e.Stopped != StoppedBudget {
		t.Errorf("Stopped = %q", e.Stopped)
	}
	if e.Stopped == StoppedTarget && e.RelHalfWidth > opts.TargetRel {
		t.Errorf("stopped at target but half-width %v > %v", e.RelHalfWidth, opts.TargetRel)
	}
	if e.Runs < MinAdaptiveRuns || e.Runs > opts.MaxRuns {
		t.Errorf("adaptive runs = %d outside [%d, %d]", e.Runs, MinAdaptiveRuns, opts.MaxRuns)
	}

	// A looser target must not need more runs than a tighter one, and the
	// whole adaptive trajectory is deterministic.
	opts.TargetRel = 0.05
	loose, err := Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Find("astar").Runs > e.Runs {
		t.Errorf("looser target took more runs: %d > %d", loose.Find("astar").Runs, e.Runs)
	}
	again, err := Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loose, again) {
		t.Errorf("adaptive collection not deterministic")
	}
}

func TestCollectValidatesOptions(t *testing.T) {
	bad := CollectOptions{Runs: -1}
	if _, err := Collect(context.Background(), bad); err == nil {
		t.Error("negative Runs accepted")
	}
	bad = CollectOptions{Adaptive: true, TargetRel: 2}
	if _, err := Collect(context.Background(), bad); err == nil {
		t.Error("TargetRel=2 accepted")
	}
}

// TestResumeArtifactByteIdentical is the end-to-end crash-safety
// acceptance check at the artifact level: a collection drained mid-suite
// (the first-SIGINT path, triggered deterministically via a fault hook),
// then resumed against the same result store at a different worker
// count, must encode to exactly the bytes of an uninterrupted collection.
func TestResumeArtifactByteIdentical(t *testing.T) {
	opts := CollectOptions{
		Suite:  testSuite(t, "astar", "libquantum"),
		Config: experiment.Config{Scale: testScale, Level: compiler.O2},
		Runs:   5,
		Seed:   81,
	}
	experiment.SetParallelism(1)
	defer experiment.SetParallelism(0)
	fresh, err := Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Encode()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, drain := experiment.WithDrain(experiment.WithCellStore(context.Background(), st.Cells()))
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteCellStart, Nth: 1, Kind: faultinject.KindHook, Hook: drain,
	})
	_, err = Collect(ctx, opts)
	deactivate()
	if !errors.Is(err, experiment.ErrStopped) {
		t.Fatalf("drained collection returned %v, want ErrStopped", err)
	}
	if _, _, stored := st.Stats(); stored != 1 {
		t.Fatalf("drained collection stored %d cells, want 1 (the in-flight benchmark)", stored)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	experiment.SetParallelism(4)
	resumed, err := Collect(experiment.WithCellStore(context.Background(), st2.Cells()), opts)
	if err != nil {
		t.Fatalf("resumed collection failed: %v", err)
	}
	got, err := resumed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact is not byte-identical to the uninterrupted one:\n%s\nvs\n%s", got, want)
	}
	if reused, _, stored := st2.Stats(); stored != 1 || reused != 1 {
		t.Errorf("resume stats stored=%d reused=%d, want 1/1", stored, reused)
	}
}

// TestStoreServesEitherEngine pins that the engine is not part of a golden
// cell's identity: cells the walk engine stored serve a compiled
// collection in store-only mode, and the golden artifacts of both engines
// (which carry no engine tag) are byte-identical to a fresh compiled one.
func TestStoreServesEitherEngine(t *testing.T) {
	opts := CollectOptions{
		Suite:  testSuite(t, "astar", "mcf"),
		Config: experiment.Config{Scale: testScale, Level: compiler.O2},
		Runs:   3,
		Seed:   29,
	}
	fresh, err := Collect(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Encode()
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := experiment.WithCellStore(context.Background(), st.Cells())
	walkOpts := opts
	walkOpts.Config.Engine = interp.EngineWalk
	walk, err := Collect(ctx, walkOpts)
	if err != nil {
		t.Fatalf("walk collection: %v", err)
	}
	served, err := Collect(experiment.WithStoreOnly(ctx), opts)
	if err != nil {
		t.Fatalf("compiled store-only collection after a walk one: %v", err)
	}
	for name, art := range map[string]*Artifact{"walk": walk, "store-served compiled": served} {
		got, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s artifact is not byte-identical to a fresh compiled one:\n%s\nvs\n%s", name, got, want)
		}
	}
	if hits, misses, puts := st.Stats(); hits != 2 || misses != 2 || puts != 2 {
		t.Errorf("store stats hits=%d misses=%d puts=%d, want 2/2/2", hits, misses, puts)
	}
}

func TestProvenanceNonGoldenAndMergeDrop(t *testing.T) {
	a := sampleArtifact()
	golden, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Decorating with provenance then stripping restores golden bytes.
	dec := sampleArtifact()
	dec.Benchmarks[0].Provenance = &Provenance{
		Trace: "deadbeefcafef00d", Span: "c0001/mcf#2", Worker: "w1",
		Coordinator: "coord-a", Epoch: 3, Attempts: 2,
		QueueWaitSeconds: 0.5, RunSeconds: 1.25,
	}
	buf, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, golden) {
		t.Fatal("provenance block did not change encoded bytes (not attached?)")
	}
	if !strings.Contains(string(buf), `"provenance_nongolden"`) {
		t.Fatalf("provenance key missing the _nongolden marker:\n%s", buf)
	}
	back, err := ReadBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p := back.Find("mcf").Provenance; p == nil || p.Worker != "w1" || p.Attempts != 2 {
		t.Fatalf("provenance did not round-trip: %+v", p)
	}
	back.StripProvenance()
	stripped, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripped, golden) {
		t.Fatalf("strip(decorated) != golden:\n%s\nvs\n%s", stripped, golden)
	}
	// A schema too old for provenance is rejected.
	old := sampleArtifact()
	old.Meta.Schema = 2
	old.Benchmarks[0].Instructions = nil
	old.Benchmarks[0].Provenance = &Provenance{Worker: "w1"}
	if err := old.Validate(); err == nil || !strings.Contains(err.Error(), "schema-3") {
		t.Fatalf("schema-2 artifact with provenance: Validate = %v", err)
	}
	// Merging continuations drops the pedigree like it drops host times.
	m1 := sampleArtifact()
	m1.Benchmarks[0].Provenance = &Provenance{Worker: "w1"}
	m2 := &Artifact{Meta: m1.Meta, Benchmarks: []Benchmark{
		{Name: "mcf", SeedBase: 103, Runs: 1, Seconds: []float64{1.25}, Cycles: []uint64{10}},
	}}
	merged, err := Merge(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Find("mcf").Provenance != nil {
		t.Fatal("merge kept provenance on a merged entry")
	}
	// Carried-over entries (present in only one half) keep theirs.
	if m1.Benchmarks[1].Name != "astar" {
		t.Fatalf("fixture changed: %v", m1.Benchmarks[1].Name)
	}
	m1.Benchmarks[1].Provenance = &Provenance{Worker: "w2"}
	merged, err = Merge(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if p := merged.Find("astar").Provenance; p == nil || p.Worker != "w2" {
		t.Fatalf("carried-over provenance lost: %+v", p)
	}
}
