package interp_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/spec"
)

// The replay suite: a run that replays another run's trace (Options.Replay)
// must be indistinguishable from a full compiled run of its own seed. The
// engine differential's replayLeg holds every fixture and runtime of that
// suite to it; these tests cover the benchmarks, the failure paths and the
// trace's own integrity checks.

// capture records m at seed under rc and fails the test if the recording
// is not replayable.
func capture(t *testing.T, m *ir.Module, rc rtConfig, seed uint64, tune func(*interp.Options)) *interp.Trace {
	t.Helper()
	tr := interp.NewTrace()
	if got := plainRun(t, m, rc, seed, tune, func(o *interp.Options) { o.Capture = tr }); got.err != nil {
		t.Fatalf("recording at seed %d: %v", seed, got.err)
	}
	if !tr.Replayable() {
		t.Fatalf("recording at seed %d is not replayable", seed)
	}
	return tr
}

// captureForModule records m at seed into the compressed trace the module
// then keeps, and fails the test if it keeps none.
func captureForModule(t *testing.T, m *ir.Module, rc rtConfig, seed uint64, tune func(*interp.Options)) *interp.Trace {
	t.Helper()
	interp.ForgetTrace(m)
	tr := interp.ClaimTrace(m)
	if tr == nil {
		t.Fatal("a module that keeps no trace refused a recording")
	}
	if got := plainRun(t, m, rc, seed, tune, func(o *interp.Options) { o.Capture = tr }); got.err != nil {
		t.Fatalf("recording for the module at seed %d: %v", seed, got.err)
	}
	if interp.KeptTrace(m) != tr || !tr.Replayable() {
		t.Fatalf("the module does not keep its completed recording")
	}
	return tr
}

// TestReplayMatchesFullRunsOnEverySuiteBenchmark records each of the 23
// benchmarks of spec.FullSuite, the five C++ ones that throw included, at
// every optimization level, natively and under full STABILIZER, and
// replays it at another seed, from a raw trace and from the compressed
// trace its module keeps.
func TestReplayMatchesFullRunsOnEverySuiteBenchmark(t *testing.T) {
	for _, b := range spec.FullSuite() {
		src := b.Build(0.02)
		for _, lv := range compiler.Levels() {
			m := prepared(t, src, lv)
			for _, rc := range []rtConfig{nativeRT, stabRT} {
				full := plainRun(t, m, rc, 42, nil, func(*interp.Options) {})
				tr := capture(t, m, rc, 41, nil)
				rep := plainRun(t, m, rc, 42, nil, func(o *interp.Options) { o.Replay = tr })
				sameRun(t, fmt.Sprintf("%s/%s/%s: replay at seed 42", b.Name, lv, rc.name), full, rep)
				tr.Release()
				kept := captureForModule(t, m, rc, 41, nil)
				rep = plainRun(t, m, rc, 42, nil, func(o *interp.Options) { o.Replay = kept })
				sameRun(t, fmt.Sprintf("%s/%s/%s: compressed replay at seed 42", b.Name, lv, rc.name), full, rep)
			}
		}
	}
}

// padFixture recurses to a fixed depth, each frame 64 bytes. Under
// STABILIZER's stack pads (0 to 4080 bytes a call) whether it fits a tight
// stack depends on the seed.
func padFixture() *ir.Module {
	mb := ir.NewModuleBuilder("pads")
	f := mb.Func("main", 0)
	g := mb.Func("down", 1)
	f.Sink(f.Call(g.Index(), f.ConstI(40)))
	f.Ret(ir.NoReg)
	g.Slot("frame", 48)
	n := g.Param(0)
	rec, done := g.NewBlock(), g.NewBlock()
	g.Br(g.CmpLE(n, g.ConstI(0)), done, rec)
	g.SetBlock(rec)
	g.Ret(g.Add(g.Call(g.Index(), g.Sub(n, g.ConstI(1))), g.ConstI(1)))
	g.SetBlock(done)
	g.Ret(g.ConstI(0))
	return mb.Module()
}

// TestReplayFailsWhereFullRunFails records a program at a seed whose run
// fits the stack and replays it at seeds whose pads overflow it: each
// replay must fail exactly as the full run of its seed does. The step
// budget and the interrupt poll must fire in a replay as in a full run.
func TestReplayFailsWhereFullRunFails(t *testing.T) {
	m := prepared(t, padFixture(), compiler.O0)
	tight := func(o *interp.Options) { o.StackLimit = 40 * 2100 }
	var fits, overflows []uint64
	for s := uint64(1); s <= 40 && (len(fits) == 0 || len(overflows) < 2); s++ {
		full := plainRun(t, m, stabRT, s, tight, func(*interp.Options) {})
		switch {
		case full.err == nil:
			fits = append(fits, s)
		case errors.Is(full.err, interp.ErrStackOverflow):
			overflows = append(overflows, s)
		default:
			t.Fatalf("seed %d: %v", s, full.err)
		}
	}
	if len(fits) == 0 || len(overflows) < 2 {
		t.Fatalf("pads never split the seeds: %d fit, %d overflow", len(fits), len(overflows))
	}
	tr := capture(t, m, stabRT, fits[0], tight)
	defer tr.Release()
	for _, s := range overflows {
		full := plainRun(t, m, stabRT, s, tight, func(*interp.Options) {})
		rep := plainRun(t, m, stabRT, s, tight, func(o *interp.Options) { o.Replay = tr })
		sameRun(t, fmt.Sprintf("overflow at seed %d", s), full, rep)
	}

	// The step budget and the interrupt poll, on a benchmark that retires
	// several interrupt strides.
	bm := benchModule(t, "astar")
	btr := capture(t, bm, stabRT, 7, nil)
	defer btr.Release()
	stop := errors.New("stop")
	for name, tune := range map[string]func(*interp.Options){
		"budget": func(o *interp.Options) { o.MaxSteps = 20_000 },
		"interrupt": func(o *interp.Options) {
			polls := 0
			o.Interrupt = func() error {
				if polls++; polls == 2 {
					return stop
				}
				return nil
			}
		},
	} {
		full := plainRun(t, bm, stabRT, 8, tune, func(*interp.Options) {})
		rep := plainRun(t, bm, stabRT, 8, tune, func(o *interp.Options) { o.Replay = btr })
		if full.err == nil {
			t.Fatalf("%s: the full run did not fail", name)
		}
		sameRun(t, name, full, rep)
	}
}

// uncaughtFixture throws out of main.
func uncaughtFixture() *ir.Module {
	mb := ir.NewModuleBuilder("uncaught")
	f := mb.Func("main", 0)
	g := mb.Func("boom", 0)
	f.Sink(f.Call(g.Index()))
	f.Ret(ir.NoReg)
	g.Throw(g.ConstI(7))
	g.Ret(ir.NoReg)
	return mb.Module()
}

// TestFailedRecordingLeavesNothingToReplay checks that a run that traps,
// ends in an uncaught exception, is interrupted or runs out of budget
// leaves no recording, and that replaying what it left fails.
func TestFailedRecordingLeavesNothingToReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *ir.Module
		tune func(*interp.Options)
	}{
		{"trap", prepared(t, digestFixtureB(), compiler.O0), nil},
		{"uncaught", prepared(t, uncaughtFixture(), compiler.O0), nil},
		{"interrupt", benchModule(t, "astar"), func(o *interp.Options) {
			o.Interrupt = func() error { return context.Canceled }
		}},
		{"budget", benchModule(t, "astar"), func(o *interp.Options) { o.MaxSteps = 10_000 }},
	} {
		tr := interp.NewTrace()
		rec := plainRun(t, tc.m, stabRT, 3, tc.tune, func(o *interp.Options) { o.Capture = tr })
		if rec.err == nil {
			t.Fatalf("%s: the recorded run did not fail", tc.name)
		}
		if tr.Replayable() || tr.Bytes() != 0 {
			t.Fatalf("%s: a failed recording left %d bytes, replayable=%v", tc.name, tr.Bytes(), tr.Replayable())
		}
		rep := plainRun(t, tc.m, stabRT, 4, nil, func(o *interp.Options) { o.Replay = tr })
		if rep.err == nil {
			t.Fatalf("%s: replaying a failed recording returned %+v", tc.name, rep.res)
		}
	}
}

// spreadFixture stores to a 1 MiB heap object at scattered offsets, eight
// stores an iteration, so each store records a multi-byte operand.
func spreadFixture(iters int64) *ir.Module {
	mb := ir.NewModuleBuilder("spread")
	f := mb.Func("main", 0)
	p := f.Alloc(1 << 20)
	f.LoopN(iters, func(i ir.Reg) {
		for k := int64(1); k <= 8; k++ {
			idx := f.And(f.Mul(f.Add(i, f.ConstI(k)), f.ConstI(40503)), f.ConstI(1<<17-1))
			f.StoreH(p, 0, idx, i)
		}
	})
	f.Sink(f.LoadH(p, 0, ir.NoReg))
	f.Ret(ir.NoReg)
	return mb.Module()
}

// TestRecordingPastCapIsDropped records a program whose trace outgrows
// interp.TraceCap by half: the run itself must complete with the full
// run's result, and leave nothing to replay.
func TestRecordingPastCapIsDropped(t *testing.T) {
	// The trace grows linearly with the iteration count: extrapolate from
	// two small runs.
	var size [2]float64
	iters := [2]int64{1000, 2000}
	for i, n := range iters {
		tr := capture(t, prepared(t, spreadFixture(n), compiler.O2), nativeRT, 5, nil)
		size[i] = float64(tr.Bytes())
		tr.Release()
	}
	perIter := (size[1] - size[0]) / float64(iters[1]-iters[0])
	m := prepared(t, spreadFixture(int64(1.5*float64(interp.TraceCap)/perIter)), compiler.O2)
	tr := interp.NewTrace()
	rec := plainRun(t, m, nativeRT, 5, nil, func(o *interp.Options) { o.Capture = tr })
	full := plainRun(t, m, nativeRT, 5, nil, func(*interp.Options) {})
	sameRun(t, "capped recording", full, rec)
	if tr.Replayable() || tr.Bytes() != 0 {
		t.Fatalf("a recording past the cap left %d bytes, replayable=%v", tr.Bytes(), tr.Replayable())
	}

	// Recording for the module: an interrupted recording leaves no mark,
	// and one past the cap marks the module for good; a raw one marks
	// nothing.
	ktr := interp.ClaimTrace(m)
	if ktr == nil {
		t.Fatal("a raw recording past the cap marked its module")
	}
	stop := func(o *interp.Options) { o.Interrupt = func() error { return context.Canceled } }
	if got := plainRun(t, m, nativeRT, 5, stop, func(o *interp.Options) { o.Capture = ktr }); got.err == nil {
		t.Fatal("the interrupted recording completed")
	}
	ktr = interp.ClaimTrace(m)
	if ktr == nil {
		t.Fatal("an interrupted recording left its module claimed or marked")
	}
	rec = plainRun(t, m, nativeRT, 5, nil, func(o *interp.Options) { o.Capture = ktr })
	sameRun(t, "capped recording for the module", full, rec)
	if ktr.Replayable() || interp.KeptTrace(m) != nil {
		t.Fatal("a recording for the module past the cap was kept")
	}
	for i := 0; i < 2; i++ {
		if again := interp.ClaimTrace(m); again != nil {
			t.Fatal("a module whose recording outgrew the cap records again")
		}
	}
}

// TestReplayRejectsAnotherModulesTrace replays a trace against a module it
// was not recorded from, a clone of the same program included.
func TestReplayRejectsAnotherModulesTrace(t *testing.T) {
	m := benchModule(t, "mcf")
	tr := capture(t, m, nativeRT, 1, nil)
	defer tr.Release()
	for name, other := range map[string]*ir.Module{"clone": m.Clone(), "astar": benchModule(t, "astar")} {
		got := plainRun(t, other, nativeRT, 2, nil, func(o *interp.Options) { o.Replay = tr })
		if got.err == nil {
			t.Fatalf("%s: replaying mcf's trace returned %+v", name, got.res)
		}
	}
}

// TestTraceOnlyOnPlainCompiledRuns checks which runs may record or replay:
// the walk engine never does, nor does a run with a Recorder, Observer or
// Profile, and no run does both.
func TestTraceOnlyOnPlainCompiledRuns(t *testing.T) {
	m := prepared(t, digestFixtureA(), compiler.O2)
	tr := capture(t, m, nativeRT, 1, nil)
	defer tr.Release()
	for name, tune := range map[string]func(*interp.Options){
		"walk":     func(o *interp.Options) { o.Engine = interp.EngineWalk },
		"recorder": func(o *interp.Options) { o.Record = interp.NewRecorder() },
		"observer": func(o *interp.Options) { o.Observer = &windowObs{} },
		"profile":  func(o *interp.Options) { o.Profile = true },
		"both":     func(o *interp.Options) { o.Capture = interp.NewTrace() },
	} {
		got := plainRun(t, m, nativeRT, 2, nil, func(o *interp.Options) {
			o.Replay = tr
			tune(o)
		})
		if got.err == nil {
			t.Fatalf("%s: a replay ran", name)
		}
	}
	if got := plainRun(t, m, nativeRT, 2, nil, func(o *interp.Options) { o.Capture = tr }); got.err == nil {
		t.Fatal("a run recorded into a trace that already holds a recording")
	}
}
