package interp_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/spec"
	"repro/internal/trace"
)

// The cross-engine differential suite: the compiled engine must be
// indistinguishable from the tree-walk reference to every observer — the
// Result (output, cycles, instructions, profile), the Recorder digest, the
// machine's full counter snapshot, and the Observer's window stream. These
// tests pin that equivalence over hand-built fixtures (covering traps,
// exceptions, budget aborts, and stack overflow), generated programs, and
// the native runtime, the full STABILIZER runtime and the configurations
// of rtConfigs. The walk engine ticks the runtime at every block, so it is
// also the reference for the compiled engine's Tick deadline (TickAt).

// windowObs records every observer window verbatim.
type windowObs struct {
	windows []struct {
		stack []int
		delta machine.Counters
	}
}

func (w *windowObs) ProfileWindow(stack []int, delta machine.Counters) {
	w.windows = append(w.windows, struct {
		stack []int
		delta machine.Counters
	}{append([]int(nil), stack...), delta})
}

// engineObservation is everything one run exposes.
type engineObservation struct {
	res      interp.Result
	err      error
	digest   interp.Digest
	counters machine.Counters
	obs      *windowObs
	// st and windows are the STABILIZER runtime and the trace.Sampler's
	// windows, when the configuration has them.
	st      *core.Stabilizer
	windows []trace.Window
}

// rtConfig is one runtime configuration of the differential suite: the
// native static layout (stab nil) or the STABILIZER runtime with stab's
// options (its seed comes from the run), optionally wrapped in a
// trace.Sampler with 3 000-cycle windows.
type rtConfig struct {
	name   string
	stab   *core.Options
	sample bool
}

var (
	nativeRT = rtConfig{name: "native"}
	// stabRT is the full STABILIZER runtime: code/stack/heap randomization,
	// re-randomized every 2 000 cycles, at basic-block granularity.
	stabRT = rtConfig{name: "stab", stab: &core.Options{
		Code: true, Stack: true, Heap: true,
		Rerandomize: true, Interval: 2_000, FineGrainCode: true,
	}}
)

// rtConfigs are the runtimes whose layout tables and Tick deadlines differ
// from the full STABILIZER's: adaptive sampling (TickAt is the earlier of
// two deadlines; a low trigger factor makes early re-randomizations
// common), stack and heap randomization without code randomization (no
// function ever gets a relocation table), the DieHard heap, and the
// trace.Sampler around either runtime (TickAt lowered to its next window).
func rtConfigs() []rtConfig {
	return []rtConfig{
		{name: "adaptive", stab: &core.Options{
			Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: 40_000,
			Adaptive: true, AdaptiveFactor: 1.05,
		}},
		{name: "stack+heap", stab: &core.Options{Stack: true, Heap: true, Rerandomize: true, Interval: 2_000}},
		{name: "diehard", stab: &core.Options{
			Code: true, Stack: true, Heap: true, UseDieHard: true, Rerandomize: true, Interval: 2_000,
		}},
		{name: "sampled-native", sample: true},
		{name: "sampled-stab", stab: stabRT.stab, sample: true},
	}
}

// runEngine executes m (already finalized and sized) under one engine with
// a fresh machine and the runtime rc names.
func runEngine(t *testing.T, m *ir.Module, eng interp.Engine, rc rtConfig, seed uint64, tune func(*interp.Options)) engineObservation {
	t.Helper()
	as := mem.NewAddressSpace()
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	mach := machine.New(machine.DefaultConfig())
	mach.SetPhysicalSeed(seed)
	var rt interp.Runtime
	var st *core.Stabilizer
	if rc.stab != nil {
		opts := *rc.stab
		opts.Seed = seed
		st, err = core.New(m, mach, as, img.FuncAddrs, img.GlobalAddrs, opts)
		if err != nil {
			t.Fatalf("core: %v", err)
		}
		rt = st
	} else {
		rt = &interp.NativeRuntime{
			FuncAddrs:   img.FuncAddrs,
			GlobalAddrs: img.GlobalAddrs,
			Stack:       as.StackBase(),
			Heap:        heap.NewSegregated(as),
			Mach:        mach,
		}
	}
	var sampler *trace.Sampler
	if rc.sample {
		sampler = trace.New(rt, mach, 3_000)
		rt = sampler
	}
	obs := &windowObs{}
	o := interp.Options{
		Machine:  mach,
		Runtime:  rt,
		Engine:   eng,
		Profile:  true,
		Record:   interp.NewRecorder(),
		Observer: obs,
	}
	if tune != nil {
		tune(&o)
	}
	res, err := interp.Run(m, o)
	got := engineObservation{res: res, err: err, counters: mach.Snapshot(), obs: obs, st: st}
	if o.Record != nil {
		got.digest = o.Record.Digest()
	}
	if st != nil && !rc.stab.Code {
		for fn, fl := range st.Layout().Funcs {
			if fl.Reloc != 0 {
				t.Fatalf("%s: function %d has a relocation table without code randomization", rc.name, fn)
			}
		}
	}
	if sampler != nil {
		got.windows = sampler.Series().Windows
	}
	return got
}

// diffEngines runs m under both engines in the same configuration and
// fails on any observable difference. It returns the walk engine's
// observation.
func diffEngines(t *testing.T, name string, m *ir.Module, rc rtConfig, seed uint64, tune func(*interp.Options)) engineObservation {
	t.Helper()
	walk := runEngine(t, m, interp.EngineWalk, rc, seed, tune)
	comp := runEngine(t, m, interp.EngineCompiled, rc, seed, tune)

	switch {
	case (walk.err == nil) != (comp.err == nil):
		t.Fatalf("%s: error divergence: walk=%v compiled=%v", name, walk.err, comp.err)
	case walk.err != nil && walk.err.Error() != comp.err.Error():
		t.Fatalf("%s: error text divergence:\n  walk:     %v\n  compiled: %v", name, walk.err, comp.err)
	}
	if !reflect.DeepEqual(walk.res, comp.res) {
		t.Fatalf("%s: result divergence:\n  walk:     %+v\n  compiled: %+v", name, walk.res, comp.res)
	}
	if walk.digest.Arch != comp.digest.Arch || walk.digest.Exec != comp.digest.Exec || walk.digest.Steps != comp.digest.Steps {
		t.Fatalf("%s: digest divergence:\n  walk:     arch=%016x exec=%016x steps=%d\n  compiled: arch=%016x exec=%016x steps=%d",
			name, walk.digest.Arch, walk.digest.Exec, walk.digest.Steps,
			comp.digest.Arch, comp.digest.Exec, comp.digest.Steps)
	}
	if walk.counters != comp.counters {
		t.Fatalf("%s: machine counter divergence:\n  walk:\n%v\n  compiled:\n%v", name, walk.counters, comp.counters)
	}
	if !reflect.DeepEqual(walk.obs.windows, comp.obs.windows) {
		if len(walk.obs.windows) != len(comp.obs.windows) {
			t.Fatalf("%s: observer window count divergence: walk=%d compiled=%d",
				name, len(walk.obs.windows), len(comp.obs.windows))
		}
		for i := range walk.obs.windows {
			if !reflect.DeepEqual(walk.obs.windows[i], comp.obs.windows[i]) {
				t.Fatalf("%s: observer window %d diverged:\n  walk:     %+v\n  compiled: %+v",
					name, i, walk.obs.windows[i], comp.obs.windows[i])
			}
		}
	}
	if walk.st != nil && walk.st.Stats != comp.st.Stats {
		t.Fatalf("%s: runtime stats divergence:\n  walk:     %+v\n  compiled: %+v", name, walk.st.Stats, comp.st.Stats)
	}
	if !reflect.DeepEqual(walk.windows, comp.windows) {
		t.Fatalf("%s: sampler windows divergence: walk %d windows, compiled %d", name, len(walk.windows), len(comp.windows))
	}
	replayLeg(t, name, m, rc, seed, tune)
	return walk
}

// plainRun is a compiled run with no Recorder, Observer or Profile: the
// only kind that records or replays a trace.
func plainRun(t *testing.T, m *ir.Module, rc rtConfig, seed uint64, tune func(*interp.Options), trace func(*interp.Options)) engineObservation {
	t.Helper()
	return runEngine(t, m, interp.EngineCompiled, rc, seed, func(o *interp.Options) {
		if tune != nil {
			tune(o)
		}
		o.Profile, o.Record, o.Observer = false, nil, nil
		trace(o)
	})
}

// replayLeg holds replays to full compiled runs: it records m at seed and
// replays the recording at two other seeds, each of which must match a
// full compiled run of its own seed in error, Result, machine counters, the
// STABILIZER runtime's Stats and the sampler's windows. A recording whose
// run failed must leave nothing to replay. It records twice: into a raw
// trace, as a pool shard does, and into the compressed trace a one-run
// cell records for its module (interp.ClaimTrace).
func replayLeg(t *testing.T, name string, m *ir.Module, rc rtConfig, seed uint64, tune func(*interp.Options)) {
	t.Helper()
	raw := interp.NewTrace()
	defer raw.Release()
	interp.ForgetTrace(m)
	defer interp.ForgetTrace(m)
	kept := interp.ClaimTrace(m)
	if kept == nil {
		t.Fatalf("%s: a module that keeps no trace refused a recording", name)
	}
	rec := plainRun(t, m, rc, seed, tune, func(o *interp.Options) { o.Capture = raw })
	krec := plainRun(t, m, rc, seed, tune, func(o *interp.Options) { o.Capture = kept })
	sameRun(t, name+": recording for the module", rec, krec)
	if got := interp.KeptTrace(m); (got != nil) != (krec.err == nil) || (got != nil && got != kept) {
		t.Fatalf("%s: recording for the module (err %v) left kept trace %p, recorded %p", name, krec.err, got, kept)
	}
	traces := map[string]*interp.Trace{"raw": raw, "compressed": kept}
	if rec.err != nil {
		for label, tr := range traces {
			if tr.Replayable() {
				t.Fatalf("%s: a %s recording that failed (%v) is replayable", name, label, rec.err)
			}
			if got := plainRun(t, m, rc, seed+1, tune, func(o *interp.Options) { o.Replay = tr }); got.err == nil {
				t.Fatalf("%s: replay of a failed %s recording returned %+v", name, label, got.res)
			}
		}
		again := interp.ClaimTrace(m)
		if again == nil {
			t.Fatalf("%s: a failed recording (%v) left its module claimed or marked", name, rec.err)
		}
		again.Release()
		return
	}
	for label, tr := range traces {
		if !tr.Replayable() {
			t.Fatalf("%s: a completed %s recording of %d bytes is not replayable", name, label, tr.Bytes())
		}
	}
	for _, s := range []uint64{seed + 1, seed + 2} {
		full := plainRun(t, m, rc, s, tune, func(*interp.Options) {})
		for label, tr := range traces {
			rep := plainRun(t, m, rc, s, tune, func(o *interp.Options) { o.Replay = tr })
			sameRun(t, fmt.Sprintf("%s: %s replay at seed %d", name, label, s), full, rep)
		}
	}
}

// sameRun fails on any difference between a full run and a replay.
func sameRun(t *testing.T, name string, full, rep engineObservation) {
	t.Helper()
	switch {
	case (full.err == nil) != (rep.err == nil):
		t.Fatalf("%s: error divergence: full=%v replay=%v", name, full.err, rep.err)
	case full.err != nil && full.err.Error() != rep.err.Error():
		t.Fatalf("%s: error text divergence:\n  full:   %v\n  replay: %v", name, full.err, rep.err)
	}
	if !reflect.DeepEqual(full.res, rep.res) {
		t.Fatalf("%s: result divergence:\n  full:   %+v\n  replay: %+v", name, full.res, rep.res)
	}
	if full.counters != rep.counters {
		t.Fatalf("%s: machine counter divergence:\n  full:\n%v\n  replay:\n%v", name, full.counters, rep.counters)
	}
	if full.st != nil && full.st.Stats != rep.st.Stats {
		t.Fatalf("%s: runtime stats divergence:\n  full:   %+v\n  replay: %+v", name, full.st.Stats, rep.st.Stats)
	}
	if !reflect.DeepEqual(full.windows, rep.windows) {
		t.Fatalf("%s: sampler windows divergence: full %d windows, replay %d", name, len(full.windows), len(rep.windows))
	}
}

// prepared compiles a fixture at the given level (stabilized so the core
// runtime can host it) and finalizes sizes.
func prepared(t *testing.T, m *ir.Module, lv compiler.OptLevel) *ir.Module {
	t.Helper()
	out, err := compiler.Compile(m, compiler.Options{Level: lv, Stabilize: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return out
}

// budgetFixture spins forever, exercising the StepBudgetError path.
func budgetFixture() *ir.Module {
	mb := ir.NewModuleBuilder("spin")
	f := mb.Func("main", 0)
	loop := f.NewBlock()
	f.Jmp(loop)
	f.SetBlock(loop)
	f.Jmp(loop)
	return mb.Module()
}

// overflowFixture recurses without bound, exercising ErrStackOverflow.
func overflowFixture() *ir.Module {
	mb := ir.NewModuleBuilder("deep")
	f := mb.Func("main", 0)
	g := mb.Func("down", 1)
	f.Ret(f.Call(g.Index(), f.ConstI(0)))
	g.Slot("pad", 256)
	g.Ret(g.Call(g.Index(), g.Param(0)))
	return mb.Module()
}

func TestEnginesMatchOnFixtures(t *testing.T) {
	fixtures := []struct {
		name  string
		build func() *ir.Module
	}{
		{"digestA", digestFixtureA},
		{"digestB-doublefree", digestFixtureB},
		{"thrower", buildThrower},
	}
	for _, fx := range fixtures {
		for _, lv := range []compiler.OptLevel{compiler.O0, compiler.O2} {
			m := prepared(t, fx.build(), lv)
			for _, rc := range []rtConfig{nativeRT, stabRT} {
				diffEngines(t, fmt.Sprintf("%s/%s/%s", fx.name, lv, rc.name), m, rc, 7, nil)
			}
		}
	}
}

func TestEnginesMatchOnGeneratedPrograms(t *testing.T) {
	for _, seed := range []uint64{5, 21, 301, 8191} {
		cfg := ir.GenConfig{Faults: seed%2 == 1}
		for _, lv := range []compiler.OptLevel{compiler.O1, compiler.O3} {
			m := prepared(t, ir.Generate(seed, cfg), lv)
			for _, rc := range []rtConfig{nativeRT, stabRT} {
				diffEngines(t, fmt.Sprintf("gen%d/%s/%s", seed, lv, rc.name), m, rc, seed, nil)
			}
		}
	}
}

func TestEnginesMatchOnBudgetAbort(t *testing.T) {
	m := prepared(t, budgetFixture(), compiler.O0)
	tune := func(o *interp.Options) { o.MaxSteps = 10_000 }
	for _, rc := range []rtConfig{nativeRT, stabRT} {
		diffEngines(t, "budget/"+rc.name, m, rc, 3, tune)
	}
	// And the error is the structured budget error under both engines.
	for _, eng := range interp.Engines() {
		got := runEngine(t, m, eng, nativeRT, 3, tune)
		if !errors.Is(got.err, interp.ErrMaxSteps) {
			t.Fatalf("engine %s: budget abort surfaced as %v", eng, got.err)
		}
	}
}

func TestEnginesMatchOnStackOverflow(t *testing.T) {
	m := prepared(t, overflowFixture(), compiler.O0)
	tune := func(o *interp.Options) { o.StackLimit = 1 << 16 }
	for _, rc := range []rtConfig{nativeRT, stabRT} {
		diffEngines(t, "overflow/"+rc.name, m, rc, 11, tune)
	}
	for _, eng := range interp.Engines() {
		got := runEngine(t, m, eng, nativeRT, 11, tune)
		if !errors.Is(got.err, interp.ErrStackOverflow) {
			t.Fatalf("engine %s: overflow surfaced as %v", eng, got.err)
		}
	}
}

// TestEnginesMatchUnderEveryRuntime holds the compiled engine to the walk
// engine under every configuration of rtConfigs, on the hand-built fixtures
// and on generated programs: results, digests, counters, observer windows,
// the STABILIZER runtime's event counts and the sampler's windows must all
// agree. The adaptive configuration must fire early re-randomizations, or
// a deadline that missed its samples could go unseen.
func TestEnginesMatchUnderEveryRuntime(t *testing.T) {
	type program struct {
		name string
		m    *ir.Module
		seed uint64
	}
	var progs []program
	for _, fx := range []struct {
		name  string
		build func() *ir.Module
	}{{"digestA", digestFixtureA}, {"digestB-doublefree", digestFixtureB}, {"thrower", buildThrower}} {
		progs = append(progs, program{fx.name, prepared(t, fx.build(), compiler.O2), 7})
	}
	// Benchmarks run long enough for dozens of re-randomizations, adaptive
	// samples and sampler windows.
	for i, name := range []string{"astar", "gcc"} {
		progs = append(progs, program{name, benchModule(t, name), uint64(31 + i)})
	}
	for _, rc := range rtConfigs() {
		var triggers uint64
		for _, p := range progs {
			walk := diffEngines(t, p.name+"/"+rc.name, p.m, rc, p.seed, nil)
			if walk.st != nil {
				triggers += walk.st.Stats.AdaptiveTriggers
			}
		}
		if rc.stab != nil && rc.stab.Adaptive && triggers == 0 {
			t.Fatalf("%s: no adaptive re-randomization fired on any program", rc.name)
		}
	}
}

// benchModule returns the named suite benchmark at scale 0.05, compiled at
// -O2 for the STABILIZER runtime.
func benchModule(t *testing.T, name string) *ir.Module {
	t.Helper()
	b, ok := spec.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	return prepared(t, b.Build(0.05), compiler.O2)
}

// TestSamplerWindowsMatchReference pins the trace.Sampler's windows on a
// benchmark, around the native and the STABILIZER runtime, to digests
// recorded when both engines still called Tick at every block: a Tick
// deadline that skipped or delayed a capture would move them.
func TestSamplerWindowsMatchReference(t *testing.T) {
	m := benchModule(t, "astar")
	for _, tc := range []struct {
		rc   rtConfig
		want uint64
	}{
		{rtConfig{name: "sampled-native", sample: true}, 0x44bdec4b4f2a27a2},                  // 26 windows
		{rtConfig{name: "sampled-stab", stab: stabRT.stab, sample: true}, 0x26ba838ac06eb235}, // 155 windows
	} {
		for _, eng := range interp.Engines() {
			got := runEngine(t, m, eng, tc.rc, 31, nil)
			if got.err != nil {
				t.Fatalf("%s/%s: %v", tc.rc.name, eng, got.err)
			}
			h := fnv.New64a()
			if err := binary.Write(h, binary.LittleEndian, got.windows); err != nil {
				t.Fatal(err)
			}
			if d := h.Sum64(); d != tc.want {
				t.Errorf("%s/%s: %d windows, digest %#x, want %#x", tc.rc.name, eng, len(got.windows), d, tc.want)
			}
		}
	}
}

// TestStaleCopyRepro is the regression fixture for propagateCopies
// staleness: a Mov destination later redefined by a non-Mov op must not be
// rewritten to the Mov's (now stale) source. Both engines must agree on
// the output; the oracle fuzz corpus carries a generated twin of this
// shape (testdata/fuzz/FuzzEngineDifferential).
func TestStaleCopyRepro(t *testing.T) {
	mb := ir.NewModuleBuilder("repro")
	f := mb.Func("main", 0)
	c5 := f.ConstI(5)
	c3 := f.ConstI(3)
	c4 := f.ConstI(4)
	d := f.Mov(c5)
	_ = f.Add(c3, c4)
	f.Sink(d)
	f.Ret(ir.NoReg)
	m := mb.Module()

	out, err := compiler.Compile(m, compiler.Options{Level: compiler.O0, Stabilize: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Find the Mov and the Add in main's entry block; redefine the Mov's
	// destination with the Add.
	blk := out.Funcs[out.Entry()].Blocks[0]
	movDst := ir.NoReg
	addIdx := -1
	for i := range blk.Instrs {
		switch blk.Instrs[i].Op {
		case ir.OpMov:
			movDst = blk.Instrs[i].Dst
		case ir.OpAdd:
			addIdx = i
		}
	}
	if movDst == ir.NoReg || addIdx < 0 {
		t.Skipf("shape not preserved by compile: mov=%v addIdx=%d instrs=%+v", movDst, addIdx, blk.Instrs)
	}
	blk.Instrs[addIdx].Dst = movDst

	walk := runEngine(t, out, interp.EngineWalk, nativeRT, 7, nil)
	comp := runEngine(t, out, interp.EngineCompiled, nativeRT, 7, nil)
	if walk.err != nil || comp.err != nil {
		t.Fatalf("errs: walk=%v comp=%v", walk.err, comp.err)
	}
	if walk.res.Output != comp.res.Output {
		t.Fatalf("output divergence: walk=%#x compiled=%#x", walk.res.Output, comp.res.Output)
	}
}

// TestEngineNames pins the engines' spellings, which artifacts' engine
// tags and throughput cell keys carry.
func TestEngineNames(t *testing.T) {
	if interp.EngineCompiled.String() != "compiled" || interp.EngineWalk.String() != "walk" {
		t.Fatal("engine String() spellings changed")
	}
}
