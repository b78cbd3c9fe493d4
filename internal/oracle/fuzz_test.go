package oracle

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
)

// fuzzVerify pumps one generated program through compile → link →
// differential execution over a reduced matrix (two seeds keep a fuzz
// iteration cheap; the full default matrix runs in the unit tests and the
// verify CLI). Any divergence is a real bug in a pass, the runtime, or an
// allocator — fail loudly with the localized report.
func fuzzVerify(t *testing.T, seed uint64, cfg ir.GenConfig) {
	m := ir.Generate(seed, cfg)
	opts := Options{Seeds: []uint64{1, 2}, MaxSteps: 20_000_000}
	if _, err := Verify(fmt.Sprintf("gen%d", seed), m, opts); err != nil {
		var div *Divergence
		if errors.As(err, &div) {
			t.Fatalf("seed %d:\n%s", seed, div.Report())
		}
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// FuzzDifferential feeds well-formed generated programs through the full
// pipeline and asserts semantic invariance across the matrix.
func FuzzDifferential(f *testing.F) {
	for _, s := range []uint64{1, 7, 42, 1234, 99991} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		fuzzVerify(t, seed, ir.GenConfig{})
	})
}

// FuzzEngineDifferential stresses the engine axis specifically: a single
// seed and allocator (so layout is pinned) with both execution engines
// across all optimization levels. Faults are enabled — trap paths are where
// an engine divergence would most plausibly hide — and the step budget is
// raised relative to fuzzVerify since the matrix is much smaller.
func FuzzEngineDifferential(f *testing.F) {
	for _, s := range []uint64{3, 17, 256, 7777, 123457} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		m := ir.Generate(seed, ir.GenConfig{Faults: seed%2 == 0})
		opts := Options{
			Seeds:      []uint64{1},
			Allocators: []string{"shuffle"},
			MaxSteps:   50_000_000,
		}
		if _, err := Verify(fmt.Sprintf("eng%d", seed), m, opts); err != nil {
			var div *Divergence
			if errors.As(err, &div) {
				t.Fatalf("seed %d:\n%s", seed, div.Report())
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		replayLeg(t, seed, m, opts)
	})
}

// replayLegSteps is the replay leg's step budget. Almost every generated
// program retires far fewer steps; on the rare long-running one the
// recording stops at the budget and leaves nothing to replay, which keeps a
// fuzz iteration inside the fuzzer's 10 s deadline.
const replayLegSteps = 2_000_000

// replayLeg holds the compiled engine's replays to its full runs: at every
// level, the program is recorded in one layout cell and replayed in two
// others, and each replay must match a full compiled run of its cell in
// error, Result, machine counters and STABILIZER Stats. A recording whose
// run failed must leave nothing to replay. Each level records twice: into
// a raw trace, as a pool shard does, and into the compressed trace its
// module keeps (interp.ClaimTrace), as a one-run cell does.
func replayLeg(t *testing.T, seed uint64, src *ir.Module, opts Options) {
	opts.MaxSteps = replayLegSteps
	opts.defaults()
	v := &verifier{name: "replay", mods: map[compiler.OptLevel]*ir.Module{}, opts: opts}
	type outcome struct {
		res      interp.Result
		err      error
		counters machine.Counters
		st       *core.Stabilizer
	}
	run := func(cell Cell, capture, replay *interp.Trace) outcome {
		mach, st, err := v.cellRuntime(cell)
		if err != nil {
			t.Fatalf("seed %d: %v: %v", seed, cell, err)
		}
		res, err := interp.Run(v.mods[cell.Level], interp.Options{
			Machine: mach, Runtime: st, MaxSteps: opts.MaxSteps, Capture: capture, Replay: replay,
		})
		return outcome{res, err, mach.Snapshot(), st}
	}
	for _, lv := range opts.Levels {
		m, err := compiler.Compile(src, compiler.Options{Level: lv, Stabilize: true})
		if err != nil {
			t.Fatalf("seed %d: compiling at %s: %v", seed, lv, err)
		}
		v.mods[lv] = m
		traces := []*interp.Trace{interp.NewTrace(), interp.ClaimTrace(m)}
		if traces[1] == nil {
			t.Fatalf("seed %d: %s: a fresh module refused a recording", seed, lv)
		}
		cell := Cell{Program: "replay", Seed: 1, Level: lv, Allocator: opts.Allocators[0]}
		failed := false
		for _, tr := range traces {
			if rec := run(cell, tr, nil); rec.err != nil {
				if tr.Replayable() || interp.KeptTrace(m) != nil {
					t.Fatalf("seed %d: %v: a recording that failed (%v) is replayable", seed, cell, rec.err)
				}
				failed = true
			}
		}
		for _, s := range []uint64{2, 3} {
			if failed {
				break // nothing to replay
			}
			cell.Seed = s
			full := run(cell, nil, nil)
			for _, tr := range traces {
				rep := run(cell, nil, tr)
				if fmt.Sprint(full.err) != fmt.Sprint(rep.err) || !reflect.DeepEqual(full.res, rep.res) ||
					full.counters != rep.counters || full.st.Stats != rep.st.Stats {
					t.Fatalf("seed %d: %v: replay diverges from the full run:\n  full:   %v %+v %+v\n  replay: %v %+v %+v",
						seed, cell, full.err, full.res, full.st.Stats, rep.err, rep.res, rep.st.Stats)
				}
			}
		}
		for _, tr := range traces {
			tr.Release()
		}
	}
}

// FuzzTrapEquivalence plants a deterministic heap-misuse fault in every
// generated program and asserts fault equivalence: the same trap kind in
// every cell, at the same retired step under every layout.
func FuzzTrapEquivalence(f *testing.F) {
	for _, s := range []uint64{2, 11, 64, 4096, 31337} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		fuzzVerify(t, seed, ir.GenConfig{Faults: true})
	})
}
