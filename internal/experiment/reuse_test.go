package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/spec"
)

// cancelAfter is a context whose Err reports cancellation from its polls-th
// poll on, so a run is cancelled at the same point mid-execution every time.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// reuseRuns are the runs the pooled-state tests mix. Each leaves the pooled
// machine and frame arena in a different state: a completed run of another
// benchmark (other frame sizes, a randomized heap, relocations), a run the
// step budget stops, and a run its context cancels mid-execution.
type reuseRuns struct {
	a, other, budget, cancel *Compiled
}

func newReuseRuns(t *testing.T) reuseRuns {
	t.Helper()
	compile := func(name string, cfg Config) *Compiled {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		cfg.Scale = testScale
		cfg.Level = compiler.O2
		cc, err := CompileBench(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}
	stab := core.AllRandomizations(0)
	return reuseRuns{
		a:      compile("astar", Config{Profile: true}),
		other:  compile("perlbench", Config{Stabilizer: &stab}),
		budget: compile("cactusADM", Config{MaxSteps: 1 << 20}),
		cancel: compile("gcc", Config{Stabilizer: &stab}),
	}
}

// runBudget runs the step-budget case and checks that it trapped.
func (r reuseRuns) runBudget(seed uint64) error {
	if _, err := r.budget.Run(seed); !errors.Is(err, interp.ErrMaxSteps) {
		return fmt.Errorf("budget run: got %v, want the step-budget trap", err)
	}
	return nil
}

// runCancelled runs the cancellation case and checks that it was cancelled.
func (r reuseRuns) runCancelled(seed uint64) error {
	base, stop := context.WithCancel(context.Background())
	defer stop()
	if _, err := r.cancel.RunCtx(&cancelAfter{Context: base, polls: 3}, seed); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled run: got %v, want context.Canceled", err)
	}
	return nil
}

// TestPooledStateDoesNotLeak runs, on one goroutine, benchmark A, then runs
// that leave the pooled machine and arena dirty in each way a run can, then
// A again at the same seed: the two results must be identical.
func TestPooledStateDoesNotLeak(t *testing.T) {
	r := newReuseRuns(t)
	const seed = 11
	first, err := r.a.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.other.Run(seed); err != nil {
		t.Fatal(err)
	}
	if err := r.runBudget(seed); err != nil {
		t.Fatal(err)
	}
	if err := r.runCancelled(seed); err != nil {
		t.Fatal(err)
	}
	again, err := r.a.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("A at seed %d changed after reusing pooled state:\nfirst %+v\nagain %+v", seed, first, again)
	}
}

// TestPooledStateDoesNotLeakConcurrent interleaves the same runs on four
// goroutines, each in its own order and at its own seeds, and requires
// every completed run to equal its single-goroutine reference.
func TestPooledStateDoesNotLeakConcurrent(t *testing.T) {
	r := newReuseRuns(t)
	const workers = 4
	type key struct {
		cc   *Compiled
		seed uint64
	}
	want := map[key]RunResult{}
	for g := uint64(0); g < workers; g++ {
		for _, cc := range []*Compiled{r.a, r.other} {
			res, err := cc.Run(20 + g)
			if err != nil {
				t.Fatal(err)
			}
			want[key{cc, 20 + g}] = res
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		seed := 20 + uint64(g)
		steps := []func() error{
			func() error { return runMatches(r.a, seed, want[key{r.a, seed}]) },
			func() error { return runMatches(r.other, seed, want[key{r.other, seed}]) },
			func() error { return r.runBudget(seed) },
			func() error { return r.runCancelled(seed) },
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(steps); i++ {
				if err := steps[(g+i)%len(steps)](); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// runMatches runs cc at seed and compares the result with want.
func runMatches(cc *Compiled, seed uint64, want RunResult) error {
	got, err := cc.Run(seed)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s at seed %d differs from its single-goroutine reference:\ngot  %+v\nwant %+v", cc.Bench.Name, seed, got, want)
	}
	return nil
}
