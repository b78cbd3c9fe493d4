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
	"repro/internal/spec"
)

// TestCellKeyNoDrift pins the one fingerprint that collection and the
// farm share: collection keys a cell by its compiled Config, the campaign
// coordinator by the Config as submitted, and the two must agree on every
// configuration shape that changes the fingerprint — while distinct shapes
// never collide.
func TestCellKeyNoDrift(t *testing.T) {
	b, _ := spec.ByName("astar")
	stab := core.AllRandomizations(0)
	cfgs := []Config{
		{},
		{Scale: 0.25},
		{Level: compiler.O3},
		{Stabilizer: &stab},
		{RandomLinkOrder: true, EnvSize: 4096},
		{Noise: -1, MaxSteps: 1 << 20},
		{Profile: true},
		{Throughput: true},
		{Scale: 0.5, Level: compiler.O1, Noise: 0.01, Throughput: true},
	}
	seen := map[string]bool{}
	for i, cfg := range cfgs {
		cc, err := CompileBench(b, cfg)
		if err != nil {
			t.Fatalf("cfg %d: compile: %v", i, err)
		}
		for _, rc := range []struct {
			runs int
			base uint64
		}{{3, 7}, {8, 900913}} {
			got := CellKey(cc.Bench.Name, cc.Cfg, rc.runs, rc.base)
			want := CellKey(b.Name, cfg, rc.runs, rc.base)
			if got != want {
				t.Errorf("cfg %d: key drift:\n  compiled:  %s\n  submitted: %s", i, got, want)
			}
			if seen[got] {
				t.Errorf("cfg %d: key %q collides with another test configuration", i, got)
			}
			seen[got] = true
		}
	}
	// The zero-scale normalization must match CompileBench's.
	if CellKey(b.Name, Config{}, 3, 7) != CellKey(b.Name, Config{Scale: 1.0}, 3, 7) {
		t.Errorf("CellKey does not normalize Scale=0 to 1.0")
	}
}

// memSource is an in-memory CellSource for tests.
type memSource struct {
	mu      sync.Mutex
	cells   map[string][]RunResult
	lookups int
	hits    int
	stores  int
	fail    bool // Store returns an error when set
}

func newMemSource() *memSource { return &memSource{cells: map[string][]RunResult{}} }

func (m *memSource) Lookup(key string, runs int, seedBase uint64) []RunResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookups++
	r, ok := m.cells[key]
	if !ok || len(r) != runs {
		return nil
	}
	m.hits++
	return r
}

func (m *memSource) Store(_ context.Context, key string, runs int, seedBase uint64, results []RunResult) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail {
		return fmt.Errorf("memSource: injected store failure")
	}
	m.stores++
	m.cells[key] = results
	return nil
}

// TestCellStoreDedupe collects the same cell twice under a shared result
// store: the second collection must be served entirely from the store and
// return results identical to the computed ones.
func TestCellStoreDedupe(t *testing.T) {
	b, _ := spec.ByName("astar")
	cc, err := CompileBench(b, Config{Scale: 0.05})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	src := newMemSource()
	ctx := WithCellStore(context.Background(), src)

	first, err := cc.Collect(ctx, 4, 100)
	if err != nil {
		t.Fatalf("first collect: %v", err)
	}
	if src.stores != 1 || src.hits != 0 {
		t.Fatalf("after first collect: stores=%d hits=%d, want 1/0", src.stores, src.hits)
	}
	second, err := cc.Collect(ctx, 4, 100)
	if err != nil {
		t.Fatalf("second collect: %v", err)
	}
	if src.hits != 1 {
		t.Fatalf("second collect did not hit the store (hits=%d)", src.hits)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatalf("store-served results differ from computed results")
	}

	// A store failure must not fail the collection.
	src.fail = true
	if _, err := cc.Collect(ctx, 4, 200); err != nil {
		t.Fatalf("collect with failing store: %v", err)
	}
}

// TestStoreOnlyMiss asserts that store-only collection refuses to compute:
// a cell absent from the store is a *StoreMissError, and a present cell is
// served without running anything new.
func TestStoreOnlyMiss(t *testing.T) {
	b, _ := spec.ByName("astar")
	cc, err := CompileBench(b, Config{Scale: 0.05})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	src := newMemSource()
	ctx := WithCellStore(context.Background(), src)

	if _, err := cc.Collect(WithStoreOnly(ctx), 4, 100); err == nil {
		t.Fatalf("store-only collect of an absent cell succeeded")
	} else {
		var miss *StoreMissError
		if !errors.As(err, &miss) {
			t.Fatalf("store-only miss returned %T (%v), want *StoreMissError", err, err)
		}
	}

	if _, err := cc.Collect(ctx, 4, 100); err != nil { // populate
		t.Fatalf("populate: %v", err)
	}
	ss, err := cc.Collect(WithStoreOnly(ctx), 4, 100)
	if err != nil {
		t.Fatalf("store-only collect of a present cell: %v", err)
	}
	if len(ss.Seconds) != 4 {
		t.Fatalf("store-only collect returned %d samples, want 4", len(ss.Seconds))
	}
}
