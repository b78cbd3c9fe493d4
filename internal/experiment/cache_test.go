package experiment

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
)

// TestResetCompileCacheFreesModules compiles and runs a few benchmarks,
// drops the compile cache, and repeats. Each cycle compiles new modules,
// lowers them on their first run, and collects two one-run cells of each,
// the first of which records the trace its module keeps and the second
// replays it; once the cache is reset nothing may keep them alive, so the
// live heap after the last cycle must match the live heap after the third
// instead of growing by every cycle's modules and traces.
func TestResetCompileCacheFreesModules(t *testing.T) {
	const cycles = 30
	benches := subset(t, "astar", "mcf", "perlbench")
	// liveHeap collects twice, so the pooled machines and frame arenas
	// (sync.Pool keeps a victim generation across one collection) are gone
	// at every reading and only reachable data remains.
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var third uint64
	for i := 1; i <= cycles; i++ {
		for _, b := range benches {
			c, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(uint64(i)); err != nil {
				t.Fatal(err)
			}
			for seed := uint64(2 * i); seed < uint64(2*i+2); seed++ {
				if _, err := c.Collect(context.Background(), 1, seed); err != nil {
					t.Fatal(err)
				}
			}
			if interp.KeptTrace(c.Module) == nil {
				t.Fatalf("cycle %d: %s keeps no trace after its one-run cells", i, b.Name)
			}
		}
		ResetCompileCache()
		if i == 3 {
			third = liveHeap()
		}
	}
	last := liveHeap()
	// A cycle's three compiled and lowered modules and their traces take
	// about 1 MB, so a heap that kept them would grow by about 27 MB over
	// the last 27 cycles.
	const bound = 2 << 20
	if last > third+bound {
		t.Fatalf("live heap grew from %d to %d bytes over %d compile cycles (bound %d): reset modules are still reachable",
			third, last, cycles-3, bound)
	}
}
