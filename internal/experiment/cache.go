package experiment

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/compiler"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/spec"
)

// Modules are read-only once compiler.Compile returns (it clones its input
// and nothing downstream writes), so cells that share a benchmark, scale,
// optimization level, and stabilize flag can link and run from one compiled
// module instead of recompiling. The cache is keyed on exactly those four
// inputs; benchmark names must map to a stable Build function, which holds
// for the spec suite and the synthetic test benchmarks.

type compileKey struct {
	bench     string
	scale     float64
	level     compiler.OptLevel
	stabilize bool
}

// cacheEntry compiles once per key; concurrent requesters wait on the Once.
type cacheEntry struct {
	once     sync.Once
	mod      *ir.Module
	err      error
	poisoned bool // err came from a recovered panic, not a clean failure
}

var compileCache = struct {
	mu           sync.Mutex
	entries      map[compileKey]*cacheEntry
	hits, misses uint64
	evictions    uint64
	poisoned     uint64 // evictions of panic-poisoned entries
}{entries: map[compileKey]*cacheEntry{}}

// compileCached returns the compiled module for the key, compiling at most
// once per key even under concurrent callers.
func compileCached(b spec.Benchmark, scale float64, copts compiler.Options) (*ir.Module, error) {
	key := compileKey{bench: b.Name, scale: scale, level: copts.Level, stabilize: copts.Stabilize}
	compileCache.mu.Lock()
	e, ok := compileCache.entries[key]
	if ok {
		compileCache.hits++
		obsMetrics().Counter("compile.cache.hits").Inc()
	} else {
		compileCache.misses++
		obsMetrics().Counter("compile.cache.misses").Inc()
		e = &cacheEntry{}
		compileCache.entries[key] = e
	}
	compileCache.mu.Unlock()
	e.once.Do(func() {
		done := obsTrace().Span("compile", b.Name, map[string]any{
			"scale": scale, "level": copts.Level.String(), "stabilize": copts.Stabilize,
		})
		defer done()
		// A panic while building or compiling must not take down the
		// sweep — and must not leave the entry looking "compiled to nil":
		// convert it to an error like any other compile failure.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("panic: %v", r)
				e.poisoned = true
			}
		}()
		// The fault site has no per-run context; an armed KindHang here
		// would block forever, so plans use KindError/KindPanic.
		if err := faultinject.Hit(context.Background(), faultinject.SiteCompileCache); err != nil {
			e.err = err
			return
		}
		e.mod, e.err = compiler.Compile(b.Build(scale), copts)
	})
	if e.err != nil {
		// Never cache a failure: a transient fault (injected or
		// otherwise) must not poison the key forever. Only evict the
		// entry if it is still ours — a concurrent caller may already
		// have replaced it with a fresh attempt.
		compileCache.mu.Lock()
		if compileCache.entries[key] == e {
			delete(compileCache.entries, key)
			compileCache.evictions++
			obsMetrics().Counter("compile.cache.evictions").Inc()
			if e.poisoned {
				compileCache.poisoned++
				obsMetrics().Counter("compile.cache.poisoned_evictions").Inc()
			}
		}
		compileCache.mu.Unlock()
		obsLog().Warn("compile cache evicted failed entry",
			obsF("bench", b.Name), obsF("poisoned", e.poisoned), obsF("err", e.err.Error()))
	}
	return e.mod, e.err
}

// CompileCacheStats reports cumulative cache hits and misses.
func CompileCacheStats() (hits, misses uint64) {
	compileCache.mu.Lock()
	defer compileCache.mu.Unlock()
	return compileCache.hits, compileCache.misses
}

// CompileCacheEvictions reports cumulative failed-entry evictions, and how
// many of those entries were poisoned by a recovered panic.
func CompileCacheEvictions() (evictions, poisoned uint64) {
	compileCache.mu.Lock()
	defer compileCache.mu.Unlock()
	return compileCache.evictions, compileCache.poisoned
}

// ResetCompileCache drops every cached module and zeroes the stats. The
// compiled engine memoizes its lowered code, and the trace a module keeps
// for replays, on the module it ran, so once no run still holds a dropped
// module, the garbage collector frees its compiled and lowered code and its
// trace together.
func ResetCompileCache() {
	compileCache.mu.Lock()
	defer compileCache.mu.Unlock()
	compileCache.entries = map[compileKey]*cacheEntry{}
	compileCache.hits, compileCache.misses = 0, 0
	compileCache.evictions, compileCache.poisoned = 0, 0
	keptBytes.Store(0)
	obsMetrics().Gauge("experiment.traces.kept_bytes").Set(0)
}
