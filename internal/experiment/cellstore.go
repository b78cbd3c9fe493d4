package experiment

import (
	"context"
	"fmt"
)

// SemanticsGeneration versions the meaning of a cell's samples, or the
// key's format. A cell key names a configuration; this constant names what
// the simulator does with it. Bump it whenever a change alters the samples
// a fixed configuration produces (machine-model timing, noise draw order,
// allocator placement, compiler lowering that shifts retired-instruction
// streams) or the format of CellKey, so result stores, which outlive the
// build that wrote them, treat old results as stale instead of serving them
// as current. Every key ends in |gen=<SemanticsGeneration>, so a store
// written by a build with another generation recomputes its cells, and
// `szfarm gc` reclaims the old blocks.
const SemanticsGeneration = 2

// CellKey fingerprints one experimental cell: every Config field that
// influences the samples, plus the run range and SemanticsGeneration. Two
// cells with equal keys collect identical results (same-seed determinism),
// which is what lets a cell store substitute stored results for a re-run.
//
// This is the one key a cell has: collection passes it to the CellSource
// verbatim, and the result store stores under exactly this key. The format
// is a stable "|"-separated record whose first field is the benchmark name
// and whose last is |gen=<SemanticsGeneration>.
//
// The engine is absent from golden keys, because both engines collect
// identical samples: a cell computed under one is served under the other.
// Throughput cells carry host times, the one quantity that depends on the
// engine, so their keys name it (|throughput=<engine>) and never match a
// golden cell or the other engine's throughput cell.
//
// A zero Scale is normalized to 1.0, matching CompileBench, so callers that
// fingerprint a Config without compiling it (the campaign coordinator) get
// the same key as the runner.
func CellKey(benchName string, cfg Config, runs int, seedBase uint64) string {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	stab := "native"
	if cfg.Stabilizer != nil {
		stab = fmt.Sprintf("stab{%+v}", *cfg.Stabilizer)
	}
	key := fmt.Sprintf("%s|scale=%g|level=%s|%s|link=%v|env=%d|noise=%g|maxsteps=%d|profile=%v|runs=%d|seedbase=%d",
		benchName, cfg.Scale, cfg.Level, stab,
		cfg.RandomLinkOrder, cfg.EnvSize, cfg.Noise,
		cfg.MaxSteps, cfg.Profile, runs, seedBase)
	if cfg.Throughput {
		key += "|throughput=" + cfg.Engine.String()
	}
	return fmt.Sprintf("%s|gen=%d", key, SemanticsGeneration)
}

// A CellSource serves completed cell results by key. The content-addressed
// result store's adapter (internal/store, Store.Cells) implements it for
// farms and for local resume directories alike; it stores each cell under
// its CellKey. Lookup returns nil on a miss — a miss is never an error,
// because re-collection is deterministic. Store persists a completed cell;
// an error or panic from it is a warning, never a failed sweep (the cell
// simply re-runs next time). Implementations must be safe for concurrent
// use by pool workers.
type CellSource interface {
	Lookup(key string, runs int, seedBase uint64) []RunResult
	Store(ctx context.Context, key string, runs int, seedBase uint64, results []RunResult) error
}

type cellStoreKeyType struct{}
type storeOnlyKeyType struct{}

var (
	cellStoreKey cellStoreKeyType
	storeOnlyKey storeOnlyKeyType
)

// WithCellStore returns a context carrying a cell store; every Collect
// under it consults the store before computing (store-first dedupe) and
// writes freshly computed cells back. This is how an interrupted sweep
// resumes: cells completed before the interruption are served, the rest
// computed.
func WithCellStore(ctx context.Context, src CellSource) context.Context {
	return context.WithValue(ctx, cellStoreKey, src)
}

// CellStoreFrom returns the cell store carried by ctx, or nil.
func CellStoreFrom(ctx context.Context) CellSource {
	src, _ := ctx.Value(cellStoreKey).(CellSource)
	return src
}

// WithStoreOnly marks the context as serve-from-store-only: a Collect whose
// cell is not in the carried store fails with a *StoreMissError instead of
// computing. This is how an artifact is assembled purely from stored
// results — `szgate compare -store` and the farm coordinator's merged
// artifact both use it — and why that assembly is byte-identical to a
// compute run: it is the same collection code path with the compute branch
// forbidden.
func WithStoreOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, storeOnlyKey, true)
}

// StoreOnly reports whether ctx forbids computing cells.
func StoreOnly(ctx context.Context) bool {
	on, _ := ctx.Value(storeOnlyKey).(bool)
	return on
}

// StoreMissError reports a cell that store-only collection could not serve.
type StoreMissError struct {
	Label string // human-readable cell label
	Key   string // the cell fingerprint that missed
}

func (e *StoreMissError) Error() string {
	return fmt.Sprintf("experiment: cell %s not in result store (store-only collection computes nothing; run the cell or drop -store)", e.Label)
}
