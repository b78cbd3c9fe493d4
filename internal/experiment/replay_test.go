package experiment

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/spec"
)

// deepRecursion recurses about 4000 calls deep, each frame 64 bytes. Under
// STABILIZER's stack pads (0 to 4080 bytes a call) that is near the 8 MiB
// stack, so whether a run overflows depends on its seed.
func deepRecursion(float64) *ir.Module {
	mb := ir.NewModuleBuilder("deep")
	f := mb.Func("main", 0)
	g := mb.Func("down", 1)
	f.Sink(f.Call(g.Index(), f.ConstI(3990)))
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

// TestShardReplaysOnlyCompletedRecordings runs a shard's three runs item by
// item. When the first run completes, the later two replay its recording;
// when it fails (interrupted, or overflowing the stack under its seed's
// pads while the later seeds fit), nothing is kept and the later runs run
// in full. Either way each later run must equal a plain run of its seed.
func TestShardReplaysOnlyCompletedRecordings(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	astar, _ := spec.ByName("astar")
	cc, err := CompileBench(astar, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := CompileBench(spec.Benchmark{Name: "replay-deep-recursion", Build: deepRecursion},
		Config{Level: compiler.O0, Stabilizer: &core.Options{Stack: true}})
	if err != nil {
		t.Fatal(err)
	}
	var over, fits []uint64
	for s := uint64(1); s <= 64 && (len(over) == 0 || len(fits) < 2); s++ {
		switch _, err := deep.Run(s); {
		case err == nil:
			fits = append(fits, s)
		case errors.Is(err, interp.ErrStackOverflow):
			over = append(over, s)
		default:
			t.Fatalf("seed %d: %v", s, err)
		}
	}
	if len(over) == 0 || len(fits) < 2 {
		t.Fatalf("pads never split the seeds: %d overflow, %d fit", len(over), len(fits))
	}

	for _, tc := range []struct {
		name    string
		c       *Compiled
		ctx     context.Context
		first   uint64
		later   []uint64
		replays uint64
		dropped uint64
	}{
		{"completed", cc, ctx, 1, []uint64{2, 3}, 2, 0},
		{"interrupted", cc, cancelled, 1, []uint64{2, 3}, 0, 1},
		{"stack overflow", deep, ctx, over[0], fits[:2], 0, 1},
	} {
		st := &shardTrace{lo: 0, hi: 3}
		_, err := tc.c.runInShard(tc.ctx, st, 0, tc.first)
		if (err == nil) != (tc.replays > 0) || (err != nil) != (st.tr == nil) {
			t.Fatalf("%s: first run: %v, trace kept: %v", tc.name, err, st.tr != nil)
		}
		for i, s := range tc.later {
			got, err := tc.c.runInShard(ctx, st, i+1, s)
			want, werr := tc.c.Run(s)
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: seed %d in the shard: %+v, %v; plain run: %+v, %v", tc.name, s, got, err, want, werr)
			}
		}
		if st.replayed != tc.replays || st.dropped != tc.dropped {
			t.Errorf("%s: %d runs replayed and %d recordings dropped, want %d and %d",
				tc.name, st.replayed, st.dropped, tc.replays, tc.dropped)
		}
		if st.tr != nil {
			t.Errorf("%s: the shard's last run did not release its trace", tc.name)
		}
	}
}

// TestReplayAllocatesLittle checks that a replayed cactusADM run allocates
// under a tenth of the bytes a full run does: a replay builds no register
// files, globals or heap-object storage.
func TestReplayAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled machines and arenas at random")
	}
	b, _ := spec.ByName("cactusADM")
	cc, err := CompileBench(b, Config{Scale: 0.2, Level: compiler.O2, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := interp.NewTrace()
	defer tr.Release()
	if _, _, err := cc.runCtx(ctx, 1, false, traceUse{capture: tr}); err != nil {
		t.Fatal(err)
	}
	bytesPerRun := func(tu traceUse) uint64 {
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for s := uint64(2); s < 2+runs; s++ {
			if _, _, err := cc.runCtx(ctx, s, false, tu); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	full, replay := bytesPerRun(runFull), bytesPerRun(traceUse{replay: tr})
	t.Logf("bytes per run: full %d, replay %d", full, replay)
	if replay*10 >= full {
		t.Fatalf("a replay allocates %d bytes, a full run %d: want under a tenth", replay, full)
	}
}
