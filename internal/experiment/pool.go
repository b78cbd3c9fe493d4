package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// The evaluation needs hundreds of independent runs per benchmark×config
// cell. Every run is fully determined by its seed and shares no mutable
// state (compiled modules are read-only after compiler.Compile), so sample
// collection parallelizes perfectly: the Pool shards a seed range across
// goroutines while each result lands in the slot its seed owns, making
// parallel output bit-identical to the sequential loop it replaced.

// defaultWorkers is the package-wide worker count used by NewPool(0).
// It starts from SZ_PARALLEL (falling back to GOMAXPROCS) and is
// overridable with SetParallelism (the cmds' -j flag).
var defaultWorkers atomic.Int64

func init() {
	defaultWorkers.Store(int64(envParallelism()))
}

// envParallelism resolves the environment-level default worker count.
func envParallelism() int {
	if s := os.Getenv("SZ_PARALLEL"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Parallelism returns the current default worker count.
func Parallelism() int { return int(defaultWorkers.Load()) }

// SetParallelism overrides the default worker count for pools built with
// NewPool(0). n <= 0 restores the SZ_PARALLEL / GOMAXPROCS default.
func SetParallelism(n int) {
	if n <= 0 {
		n = envParallelism()
	}
	defaultWorkers.Store(int64(n))
}

var (
	progressMu sync.Mutex
	progressW  io.Writer
)

// SetProgress directs per-cell progress/throughput lines (runs completed,
// runs/sec, ETA) and plain-text cell warnings to w. nil (the default)
// disables progress lines. Sweeps build their pools internally, so this
// process-wide writer is the one place a CLI can route them.
func SetProgress(w io.Writer) {
	progressMu.Lock()
	progressW = w
	progressMu.Unlock()
}

func progressWriter() io.Writer {
	progressMu.Lock()
	defer progressMu.Unlock()
	return progressW
}

// Pool executes indexed work items across a fixed set of goroutines.
type Pool struct {
	workers int
}

// NewPool builds a pool with the given worker count; workers <= 0 uses the
// package default (SZ_PARALLEL, -j, or GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = Parallelism()
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// shards returns how many shards ForEach splits n items into: one per
// worker, but no more than n.
func (p *Pool) shards(n int) int {
	return max(1, min(p.workers, n))
}

// shardRange returns the contiguous items [lo, hi) of shard w of k over n
// items. A shard runs its items in order on one goroutine.
func shardRange(n, k, w int) (lo, hi int) {
	return n * w / k, n * (w + 1) / k
}

// PanicError is a panic recovered in a pool worker, converted to an error
// so one bad cell fails the sweep instead of killing the process. It
// carries the cell label and item index that panicked plus the stack
// captured at the recovery point.
type PanicError struct {
	Label string // cell label ("" for unlabeled pools)
	Index int    // work-item index that panicked
	Value any    // recovered panic value
	Stack []byte // goroutine stack at recovery
}

func (e *PanicError) Error() string {
	// Index < 0 means the panic was recovered at the cell boundary rather
	// than inside a work item.
	where := fmt.Sprintf("item %d", e.Index)
	if e.Index < 0 {
		where = "setup"
	}
	if e.Label != "" {
		where = fmt.Sprintf("cell %q, %s", e.Label, where)
	}
	return fmt.Sprintf("experiment: panic in pool worker (%s): %v\n%s", where, e.Value, e.Stack)
}

// safeCall runs one work item with panic isolation: a panic in fn (or in
// an injected fault) becomes a *PanicError return instead of unwinding
// past the worker goroutine.
func safeCall(ctx context.Context, label string, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Label: label, Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Hit(ctx, faultinject.SitePoolWorker); err != nil {
		return err
	}
	return fn(ctx, i)
}

// ForEach runs fn(ctx, i) for every i in [0, n), sharding the index range
// into contiguous blocks, one per worker — with seed-indexed work this is
// seed-range sharding. The first fn error cancels ctx for all workers and
// is returned; slots already written stay written. Because every item
// writes only state owned by its own index, results are identical to a
// sequential loop regardless of worker count.
//
// Two error classes get special handling: a panic in fn is recovered into
// a *PanicError (cancelling the rest of the pool, not the process), and
// an error matching ErrStopped stops dispatch of further items WITHOUT
// cancelling ctx, so sibling items already in flight drain to completion
// before ErrStopped is returned.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return p.forEach(ctx, "", n, fn)
}

// ForEachLabeled is ForEach with a cell label for progress reporting
// (enabled via SetProgress).
func (p *Pool) ForEachLabeled(ctx context.Context, label string, n int, fn func(ctx context.Context, i int) error) error {
	return p.forEach(ctx, label, n, fn)
}

func (p *Pool) forEach(parent context.Context, label string, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return parent.Err()
	}
	prog := newProgress(label, n)
	met := obsMetrics()
	met.Counter("pool.cells.started").Inc()
	met.Gauge("pool.workers").Set(float64(p.workers))
	cellStart := time.Now()
	defer func() {
		// Wall-clock throughput is real but not reproducible: non-golden.
		met.Histogram("pool.cell.wall_seconds").NonGolden().Observe(time.Since(cellStart).Seconds())
		met.Counter("pool.cells.completed").Inc()
	}()
	runDone := met.Counter("pool.runs.completed")
	workers := p.shards(n)
	if workers <= 1 {
		// Sequential path: same iteration order as the historical loops.
		for i := 0; i < n; i++ {
			if err := parent.Err(); err != nil {
				return err
			}
			if err := safeCall(parent, label, i, fn); err != nil {
				return err
			}
			runDone.Inc()
			prog.step()
		}
		prog.done()
		return nil
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		stopping atomic.Bool // drain: stop dispatching, let in-flight finish
		stopOnce sync.Once
		stopErr  error
	)
	queueWait := met.Histogram("pool.queue.wait_seconds").NonGolden()
	for w := 0; w < workers; w++ {
		lo, hi := shardRange(n, workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Time from dispatch to this shard actually starting: scheduler
			// queue wait. Wall-clock, hence non-golden.
			queueWait.Observe(time.Since(cellStart).Seconds())
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil || stopping.Load() {
					return
				}
				if err := safeCall(ctx, label, i, fn); err != nil {
					if errors.Is(err, ErrStopped) {
						// A drained item is not a failure: record it and
						// stop dispatching, but leave ctx alive so sibling
						// workers finish their current items.
						stopOnce.Do(func() { stopErr = err })
						stopping.Store(true)
						return
					}
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				runDone.Inc()
				prog.step()
			}
		}()
	}
	wg.Wait()
	prog.done()
	if firstErr != nil {
		return firstErr
	}
	if stopErr != nil {
		return stopErr
	}
	return parent.Err()
}

// progress tracks one cell's completion count and emits throttled
// throughput lines. A nil *progress (reporting disabled) is inert.
type progress struct {
	w     io.Writer
	label string
	total int64
	start time.Time
	count atomic.Int64
	last  atomic.Int64 // unix nanos of the most recent report
}

// progressEvery throttles reporting; quick cells stay silent.
const progressEvery = 500 * time.Millisecond

func newProgress(label string, total int) *progress {
	w := progressWriter()
	if w == nil || label == "" {
		return nil
	}
	pr := &progress{w: w, label: label, total: int64(total), start: time.Now()}
	pr.last.Store(pr.start.UnixNano())
	return pr
}

func (p *progress) step() {
	if p == nil {
		return
	}
	n := p.count.Add(1)
	now := time.Now()
	last := p.last.Load()
	if now.UnixNano()-last < int64(progressEvery) {
		return
	}
	if !p.last.CompareAndSwap(last, now.UnixNano()) {
		return // another worker just reported
	}
	elapsed := now.Sub(p.start).Seconds()
	rate := float64(n) / elapsed
	eta := float64(p.total-n) / rate
	fmt.Fprintf(p.w, "  [%s] %d/%d runs  %.1f runs/s  ETA %.1fs\n",
		p.label, n, p.total, rate, eta)
}

func (p *progress) done() {
	if p == nil {
		return
	}
	elapsed := time.Since(p.start)
	if elapsed < progressEvery {
		return
	}
	n := p.count.Load()
	fmt.Fprintf(p.w, "  [%s] %d/%d runs in %s  (%.1f runs/s)\n",
		p.label, n, p.total, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
}
