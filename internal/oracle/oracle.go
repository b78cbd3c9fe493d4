// Package oracle is the semantic-invariance guard: it executes one program
// across a matrix of randomization seeds, optimization levels, heap
// allocators (and the native runtime) and execution engines, and asserts
// that every cell exhibits the same architectural behaviour. Each cell is
// built by experiment.NewRun, the constructor every measured run uses, so
// the oracle checks the engine's own run code.
//
// The guarantee STABILIZER's statistics rest on is that randomization changes
// *where* code and data live, never *what* the program computes (§2, §3). The
// oracle checks that guarantee differentially, using the interpreter's
// layout-invariant digests (interp.Recorder):
//
//   - Within a fixed optimization level, every (seed, allocator) cell must
//     produce an identical Exec digest — the same stores, allocations, frees,
//     calls, and throws at the same retired-instruction indices.
//   - Across optimization levels, the Arch digest — sinks, exit status, trap
//     kind — must be identical: passes may add or remove instructions but
//     never change output.
//
// A program fault is a valid outcome as long as it is *equivalent*: the same
// trap kind folded into every cell's digest (and, within a level, at the same
// retired step). A run that traps under one allocator but exits cleanly under
// another is exactly the layout-dependent bug the oracle exists to catch.
//
// On mismatch the two diverging cells are re-executed with tracing recorders
// and the report names the first diverging retired instruction with a window
// of surrounding events from both runs.
package oracle

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/trap"
)

// AllocatorNames lists the heap policies the oracle sweeps by default. The
// first four run under the STABILIZER runtime with that allocator in place
// of its own: the segregated-fit base, TLSF, DieHard, and the shuffling
// layer over segregated fit. "native" runs the native runtime and its TLSF
// heap, as measured runs without STABILIZER do.
var AllocatorNames = []string{"segregated", "tlsf", "diehard", "shuffle", "native"}

// seedSalt decorrelates oracle cell RNG streams from the experiment
// engine's (which salts with 0x5ab1112e).
const seedSalt = 0x6f7261636c65 // "oracle"

// Options configures a verification matrix.
type Options struct {
	// Seeds are the randomization seeds to sweep (default 1, 2, 3).
	Seeds []uint64
	// Levels are the optimization levels to sweep (default O0..O3).
	Levels []compiler.OptLevel
	// Allocators are the heap policies to sweep, by name (default
	// AllocatorNames).
	Allocators []string
	// MaxSteps bounds each cell's retired instructions (default 200e6).
	// Exhausting it is an infrastructure error, not a divergence.
	MaxSteps uint64
	// Interval is the re-randomization period in simulated cycles (default
	// 20 000 — much shorter than the experiment default so even small
	// programs cross several re-randomizations).
	Interval uint64
	// Window is how many events of context surround the first diverging
	// event in a report (default 8).
	Window int
	// TraceCap bounds the events retained during a divergence re-run
	// (default 65536).
	TraceCap int

	// wrapAlloc, when set by tests, wraps each STABILIZER cell's heap
	// allocator. It is the hook the oracle's own tests use to plant
	// layout-dependent bugs.
	wrapAlloc func(heap.Allocator) heap.Allocator
}

func (o *Options) defaults() {
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2, 3}
	}
	if len(o.Levels) == 0 {
		o.Levels = compiler.Levels()
	}
	if len(o.Allocators) == 0 {
		o.Allocators = AllocatorNames
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 200_000_000
	}
	if o.Interval == 0 {
		o.Interval = 20_000
	}
	if o.Window == 0 {
		o.Window = 8
	}
	if o.TraceCap == 0 {
		o.TraceCap = 1 << 16
	}
}

// Cell identifies one point of the verification matrix.
type Cell struct {
	Program   string
	Seed      uint64
	Level     compiler.OptLevel
	Allocator string
	Engine    interp.Engine
}

func (c Cell) String() string {
	return fmt.Sprintf("%s seed=%d %s alloc=%s engine=%s", c.Program, c.Seed, c.Level, c.Allocator, c.Engine)
}

// Result summarizes a passed verification.
type Result struct {
	Program string
	// Cells is the number of matrix cells executed.
	Cells int
	// Arch is the program's architectural digest (identical in every cell,
	// or verification would have failed).
	Arch uint64
	// Exec maps each optimization level to its execution digest.
	Exec map[compiler.OptLevel]uint64
}

// Verify compiles src at every level in opts (with the STABILIZER
// transformations applied, since cells run under the full runtime) and
// differentially executes the matrix. It returns a *Divergence error if any
// two cells disagree, or a plain error for infrastructure failures (compile
// errors, step-budget exhaustion, stack overflow).
func Verify(name string, src *ir.Module, opts Options) (*Result, error) {
	opts.defaults()
	mods := make(map[compiler.OptLevel]*ir.Module, len(opts.Levels))
	for _, lv := range opts.Levels {
		m, err := compiler.Compile(src, compiler.Options{Level: lv, Stabilize: true})
		if err != nil {
			return nil, fmt.Errorf("oracle: compiling %s at %s: %w", name, lv, err)
		}
		mods[lv] = m
	}
	return verifyCompiled(name, mods, opts)
}

// verifyCompiled runs the matrix over pre-compiled modules (one per level,
// compiled with Stabilize set).
func verifyCompiled(name string, mods map[compiler.OptLevel]*ir.Module, opts Options) (*Result, error) {
	opts.defaults()
	v := &verifier{name: name, mods: mods, opts: opts}
	res := &Result{Program: name, Exec: make(map[compiler.OptLevel]uint64, len(opts.Levels))}

	// Layout and engine axes: within each level, every (seed, allocator,
	// engine) cell must match the level's first cell
	// instruction-for-instruction, which pins the compiled engine to the
	// tree-walk reference byte for byte.
	type levelRef struct {
		cell   Cell
		digest interp.Digest
	}
	var refs []levelRef
	for _, lv := range opts.Levels {
		if mods[lv] == nil {
			return nil, fmt.Errorf("oracle: %s: no module compiled for %s", name, lv)
		}
		var ref *levelRef
		for _, seed := range opts.Seeds {
			for _, al := range opts.Allocators {
				for _, eng := range interp.Engines() {
					cell := Cell{Program: name, Seed: seed, Level: lv, Allocator: al, Engine: eng}
					rec := interp.NewRecorder()
					if err := v.runCell(cell, rec); err != nil {
						return nil, fmt.Errorf("oracle: %v: %w", cell, err)
					}
					d := rec.Digest()
					res.Cells++
					if ref == nil {
						ref = &levelRef{cell: cell, digest: d}
						continue
					}
					if d.Exec != ref.digest.Exec {
						// Attribute the divergence to the engine axis only
						// when the engines alone differ; otherwise layout
						// (seed/allocator) is the moving part.
						axis := AxisLayout
						if ref.cell.Seed == cell.Seed && ref.cell.Allocator == cell.Allocator {
							axis = AxisEngine
						}
						div, err := v.localize(ref.cell, cell, ref.digest, d, axis)
						if err != nil {
							return nil, err
						}
						return nil, div
					}
				}
			}
		}
		res.Exec[lv] = ref.digest.Exec
		refs = append(refs, *ref)
	}

	// Optimization axis: the architectural digest must agree across levels.
	base := refs[0]
	for _, r := range refs[1:] {
		if r.digest.Arch != base.digest.Arch {
			div, err := v.localize(base.cell, r.cell, base.digest, r.digest, AxisOptimization)
			if err != nil {
				return nil, err
			}
			return nil, div
		}
	}
	res.Arch = base.digest.Arch
	return res, nil
}

type verifier struct {
	name string
	mods map[compiler.OptLevel]*ir.Module
	opts Options
}

// buildAllocator constructs a heap policy by name.
func buildAllocator(name string, as *mem.AddressSpace, r *rng.Marsaglia) (heap.Allocator, error) {
	switch name {
	case "segregated":
		return heap.NewSegregated(as), nil
	case "tlsf":
		return heap.NewTLSF(as, 1<<22), nil
	case "diehard":
		return heap.NewDieHard(as, r), nil
	case "shuffle":
		return heap.NewShuffle(heap.NewSegregated(as), r, heap.DefaultShuffleN), nil
	default:
		return nil, fmt.Errorf("unknown allocator %q (valid: %s)", name, strings.Join(AllocatorNames, ", "))
	}
}

// runCell executes one matrix cell into rec. A clean run, a program trap,
// and an uncaught exception are all valid outcomes (each is folded into the
// digest); any other failure is an infrastructure error.
func (v *verifier) runCell(cell Cell, rec *interp.Recorder) error {
	run, err := v.cellRun(cell)
	if err != nil {
		return err
	}
	defer run.Release()
	_, err = interp.Run(v.mods[cell.Level], interp.Options{
		Machine:  run.Machine,
		Runtime:  run.Runtime,
		MaxSteps: v.opts.MaxSteps,
		Record:   rec,
		Engine:   cell.Engine,
	})
	return classify(err)
}

// cellRun builds one cell's run with the experiment engine's own
// constructor: seeded ASLR, a random link order and a seeded physical page
// assignment, then either the native runtime with its TLSF heap (allocator
// "native") or the full STABILIZER runtime with re-randomization and the
// cell's allocator in place of its own heap.
func (v *verifier) cellRun(cell Cell) (experiment.Run, error) {
	cfg := experiment.Config{RandomLinkOrder: true}
	var alloc func(*mem.AddressSpace, *rng.Marsaglia) (heap.Allocator, error)
	if cell.Allocator != "native" {
		cfg.Stabilizer = &core.Options{
			Code: true, Stack: true, Heap: true,
			Rerandomize: true,
			Interval:    v.opts.Interval,
		}
		alloc = func(as *mem.AddressSpace, r *rng.Marsaglia) (heap.Allocator, error) {
			a, err := buildAllocator(cell.Allocator, as, r)
			if err == nil && v.opts.wrapAlloc != nil {
				a = v.opts.wrapAlloc(a)
			}
			return a, err
		}
	}
	return experiment.NewRun(v.mods[cell.Level], cfg, cell.Seed^seedSalt, alloc)
}

// classify separates program outcomes (fine: they are in the digest) from
// infrastructure failures (fatal: the matrix cannot be compared).
func classify(err error) error {
	if err == nil {
		return nil
	}
	if tr := trap.AsTrap(err); tr != nil {
		return nil // program fault, recorded as EvTrap
	}
	var ue *interp.UncaughtError
	if errors.As(err, &ue) {
		return nil // program outcome, recorded as EvExit status 1
	}
	return err
}
