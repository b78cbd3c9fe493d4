package oracle

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/ir"
	"repro/internal/spec"
)

// VerifyOptions configures a semantic-invariance sweep over a set of
// benchmarks.
type VerifyOptions struct {
	// Matrix is passed through to each program's verification matrix
	// (zero value = the defaults: 3 seeds x O0-O3 x every allocator in
	// AllocatorNames).
	Matrix Options
	// Scale is the benchmark scale factor (default 1.0).
	Scale float64
	// Workers sizes the pool (0 = GOMAXPROCS).
	Workers int
}

// VerifyFinding is one program's verification outcome.
type VerifyFinding struct {
	Program string
	Result  *Result
	// Divergence is non-nil when the program failed semantic invariance.
	Divergence *Divergence
	// Err is non-nil for infrastructure failures (compile error, step
	// budget, stack overflow).
	Err error
}

// VerifyReport aggregates a sweep; Findings are in input order.
type VerifyReport struct {
	Findings []VerifyFinding
	Cells    int
}

// Failed reports whether any program diverged or errored.
func (r *VerifyReport) Failed() bool {
	for _, f := range r.Findings {
		if f.Divergence != nil || f.Err != nil {
			return true
		}
	}
	return false
}

// String renders a one-line-per-program summary, with full divergence
// reports appended for failures.
func (r *VerifyReport) String() string {
	var sb strings.Builder
	for _, f := range r.Findings {
		switch {
		case f.Divergence != nil:
			fmt.Fprintf(&sb, "%-14s DIVERGED (%s axis)\n", f.Program, f.Divergence.Axis)
		case f.Err != nil:
			fmt.Fprintf(&sb, "%-14s ERROR: %v\n", f.Program, f.Err)
		default:
			fmt.Fprintf(&sb, "%-14s ok: %d cells, arch=%016x\n", f.Program, f.Result.Cells, f.Result.Arch)
		}
	}
	for _, f := range r.Findings {
		if f.Divergence != nil {
			sb.WriteString("\n")
			sb.WriteString(f.Divergence.Report())
		}
	}
	return sb.String()
}

// VerifySemantics runs the matrix over every benchmark, one experiment
// pool worker per program, on the experiment engine's compile cache (each
// level's module is compiled at most once per process, shared with any
// later experiment runs at the same level). It is the implementation of
// the experiment driver's -verify-semantics pre-flight and the stabilizer
// verify subcommand.
func VerifySemantics(ctx context.Context, benches []spec.Benchmark, opts VerifyOptions) (*VerifyReport, error) {
	if s := experiment.Obs(); s != nil {
		defer s.Trace.Span("verify", "semantic-invariance", map[string]any{"programs": len(benches)})()
	}
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	mopts := opts.Matrix
	if len(mopts.Levels) == 0 {
		mopts.Levels = compiler.Levels()
	}

	rep := &VerifyReport{Findings: make([]VerifyFinding, len(benches))}
	var mu sync.Mutex
	pool := experiment.NewPool(opts.Workers)
	err := pool.ForEachLabeled(ctx, "verify", len(benches), func(ctx context.Context, i int) error {
		b := benches[i]
		f := VerifyFinding{Program: b.Name}
		mods := make(map[compiler.OptLevel]*ir.Module, len(mopts.Levels))
		for _, lv := range mopts.Levels {
			// Any Stabilizer selects the Stabilize-compiled module.
			c, err := experiment.CompileBench(b, experiment.Config{Scale: opts.Scale, Level: lv, Stabilizer: &core.Options{}})
			if err != nil {
				f.Err = fmt.Errorf("compiling at %s: %w", lv, err)
				break
			}
			mods[lv] = c.Module
		}
		if f.Err == nil {
			res, err := verifyCompiled(b.Name, mods, mopts)
			var div *Divergence
			switch {
			case err == nil:
				f.Result = res
				mu.Lock()
				rep.Cells += res.Cells
				mu.Unlock()
			case errors.As(err, &div):
				f.Divergence = div
			default:
				f.Err = err
			}
		}
		mu.Lock()
		rep.Findings[i] = f
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
