package experiment_test

// Resume tests: an interrupted sweep, resumed against the same result
// store directory (the CLIs' -checkpoint/-resume directory), must
// reproduce the uninterrupted sweep exactly — at any worker count — and no
// fault or corruption in the store may fail a sweep or feed it wrong data.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// openStore opens the result store at dir and returns it with a context
// whose collections are served from and written back to it.
func openStore(t *testing.T, dir string) (*store.Store, context.Context) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, experiment.WithCellStore(context.Background(), st.Cells())
}

// TestResumeCheckpointRoundTrip stores one cell and replays it: the
// replayed SampleSet must be deeply equal to the fresh one (the JSON
// round trip loses nothing), and Stats must account for both directions.
func TestResumeCheckpointRoundTrip(t *testing.T) {
	st, ctx := openStore(t, t.TempDir())
	b := experiment.Subset(t, "astar")[0]
	cc, err := experiment.CompileBench(b, experiment.Config{Scale: experiment.TestScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cc.Collect(ctx, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if reused, _, stored := st.Stats(); stored != 1 || reused != 0 {
		t.Fatalf("stats after first collect: stored=%d reused=%d, want 1/0", stored, reused)
	}
	replayed, err := cc.Collect(ctx, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, fresh) {
		t.Error("replayed cell differs from the fresh collection")
	}
	if reused, _, stored := st.Stats(); stored != 1 || reused != 1 {
		t.Fatalf("stats after replay: stored=%d reused=%d, want 1/1", stored, reused)
	}
	// A different seed base is a different cell — never served from the
	// stored one.
	other, err := cc.Collect(ctx, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other.Seconds, fresh.Seconds) {
		t.Error("different seed base replayed the stored cell")
	}
}

// TestResumeToleratesCorruptCheckpoint truncates and garbage-fills the
// cell's block: lookups must degrade to a miss (cell re-runs, same
// results), never to an error or wrong data, and the re-run must heal the
// block so the next resume is served from it.
func TestResumeToleratesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, ctx := openStore(t, dir)
	b := experiment.Subset(t, "astar")[0]
	cc, err := experiment.CompileBench(b, experiment.Config{Scale: experiment.TestScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cc.Collect(ctx, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := filepath.Glob(filepath.Join(dir, "blocks", "*", "*.json"))
	if err != nil || len(blocks) != 1 {
		t.Fatalf("block files %v (err %v), want exactly one", blocks, err)
	}
	for _, garbage := range []string{"", "{not json", `{"schema": 99, "key": "x"}`} {
		if err := os.WriteFile(blocks[0], []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, ctx2 := openStore(t, dir)
		got, err := cc.Collect(ctx2, 3, 41)
		if err != nil {
			t.Fatalf("corrupt block %q failed the sweep: %v", garbage, err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("re-run after corruption %q produced different samples", garbage)
		}
		if reused, _, stored := st2.Stats(); stored != 1 || reused != 0 {
			t.Fatalf("corruption %q: stored=%d reused=%d, want re-store 1/0", garbage, stored, reused)
		}
		st3, ctx3 := openStore(t, dir)
		if _, err := cc.Collect(ctx3, 3, 41); err != nil {
			t.Fatal(err)
		}
		if reused, _, stored := st3.Stats(); stored != 0 || reused != 1 {
			t.Fatalf("after healing corruption %q: stored=%d reused=%d, want 0/1", garbage, stored, reused)
		}
	}
}

// TestResumeCheckpointStoreFaultIsHarmless injects a failure into the
// write-back of a computed cell: the sweep still succeeds (the store is an
// optimization, not a dependency), nothing half-written is left behind,
// and the next run simply stores the cell again.
func TestResumeCheckpointStoreFaultIsHarmless(t *testing.T) {
	dir := t.TempDir()
	st, ctx := openStore(t, dir)
	b := experiment.Subset(t, "astar")[0]
	cc, err := experiment.CompileBench(b, experiment.Config{Scale: experiment.TestScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
		deactivate := faultinject.Activate(1, faultinject.Fault{
			Site: faultinject.SiteCellStore, Nth: 1, Kind: kind,
		})
		_, err = cc.Collect(ctx, 3, 51)
		deactivate()
		if err != nil {
			t.Fatalf("store fault %v failed the sweep: %v", kind, err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "blocks", "*", "*"))
		if len(files) != 0 {
			t.Fatalf("store fault %v left files behind: %v", kind, files)
		}
	}
	// With no plan active the cell stores normally.
	if _, err := cc.Collect(ctx, 3, 51); err != nil {
		t.Fatal(err)
	}
	if _, _, stored := st.Stats(); stored != 1 {
		t.Fatalf("stored %d cells after recovery, want 1", stored)
	}
}

// TestResumeAfterDrainMatchesUninterrupted is the acceptance test for the
// whole crash-safety story: a sweep is drained mid-flight at a
// deterministic point (a KindHook fault raising the drain flag, standing
// in for the first SIGINT), completed cells land in the store, and a
// resumed run — at a different worker count — produces a result deeply
// equal to an uninterrupted sweep.
func TestResumeAfterDrainMatchesUninterrupted(t *testing.T) {
	opts := experiment.NormalityOptions{
		Scale: experiment.TestScale,
		Runs:  4,
		Seed:  61,
		Suite: experiment.Subset(t, "astar", "libquantum"),
	}

	var uninterrupted *experiment.NormalityResult
	var err error
	experiment.WithParallelism(t, 1, func() {
		uninterrupted, err = experiment.Normality(context.Background(), opts)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: drain raised at the start of the 2nd cell (of 4:
	// two configurations per benchmark). The in-flight cell finishes and
	// is stored; the remaining benchmark is never started.
	dir := t.TempDir()
	st, sctx := openStore(t, dir)
	ctx, drain := experiment.WithDrain(sctx)
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteCellStart, Nth: 2, Kind: faultinject.KindHook, Hook: drain,
	})
	experiment.WithParallelism(t, 1, func() {
		_, err = experiment.Normality(ctx, opts)
	})
	deactivate()
	if !errors.Is(err, experiment.ErrStopped) {
		t.Fatalf("drained sweep returned %v, want ErrStopped", err)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Errorf("drain error %q does not point at -resume", err)
	}
	_, _, stored := st.Stats()
	if stored == 0 || stored >= 4 {
		t.Fatalf("drained sweep stored %d of 4 cells, want a strict subset", stored)
	}

	// Resume at a different worker count: stored cells replay, the rest
	// collect fresh, and the result matches the uninterrupted sweep.
	st2, ctx2 := openStore(t, dir)
	var resumed *experiment.NormalityResult
	experiment.WithParallelism(t, 4, func() {
		resumed, err = experiment.Normality(ctx2, opts)
	})
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if !reflect.DeepEqual(resumed, uninterrupted) {
		t.Error("resumed sweep differs from the uninterrupted sweep")
	}
	reused2, _, stored2 := st2.Stats()
	if reused2 != stored || stored2 != 4-stored {
		t.Errorf("resume stats stored=%d reused=%d, want %d/%d", stored2, reused2, 4-stored, stored)
	}

	// A third pass replays everything.
	st3, ctx3 := openStore(t, dir)
	var replayed *experiment.NormalityResult
	experiment.WithParallelism(t, 2, func() {
		replayed, err = experiment.Normality(ctx3, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, uninterrupted) {
		t.Error("fully-replayed sweep differs from the uninterrupted sweep")
	}
	if reused3, _, stored3 := st3.Stats(); stored3 != 0 || reused3 != 4 {
		t.Errorf("replay stats stored=%d reused=%d, want 0/4", stored3, reused3)
	}
}

// TestResumeDrainStopsParallelSweepCleanly drains a parallel sweep: the
// pool must report experiment.ErrStopped without cancelling in-flight cells, and the
// stored subset must be valid cells an undisturbed resume can use.
func TestResumeDrainStopsParallelSweepCleanly(t *testing.T) {
	opts := experiment.NormalityOptions{
		Scale: experiment.TestScale,
		Runs:  3,
		Seed:  71,
		Suite: experiment.Subset(t, "astar", "libquantum", "mcf"),
	}
	dir := t.TempDir()
	_, sctx := openStore(t, dir)
	ctx, drain := experiment.WithDrain(sctx)
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteCellStart, Nth: 1, Kind: faultinject.KindHook, Hook: drain,
	})
	var err error
	experiment.WithParallelism(t, 3, func() {
		_, err = experiment.Normality(ctx, opts)
	})
	deactivate()
	if !errors.Is(err, experiment.ErrStopped) {
		t.Fatalf("drained parallel sweep returned %v, want ErrStopped", err)
	}
	// Whatever was stored must replay cleanly on resume.
	_, ctx2 := openStore(t, dir)
	var resumed, fresh *experiment.NormalityResult
	experiment.WithParallelism(t, 1, func() {
		resumed, err = experiment.Normality(ctx2, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	experiment.WithParallelism(t, 1, func() {
		fresh, err = experiment.Normality(context.Background(), opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Error("resume after parallel drain differs from a fresh sweep")
	}
}
