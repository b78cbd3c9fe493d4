package experiment

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PhasesResult tests §4's phase-behavior argument: a program whose execution
// alternates through distinct phases must still come out normally
// distributed under re-randomization, because each phase decomposes into
// normalized subprograms.
type PhasesResult struct {
	// TraceText is the sampled counter series of one native run, showing
	// the phases exist.
	TraceText  string
	PhaseCount int
	// Normality of execution times with one-time vs re-randomization.
	SWOnce, SWRerand float64
	CVOnce, CVRerand float64
	Runs             int
}

// PhasesOptions configures the experiment.
type PhasesOptions struct {
	Scale    float64
	Runs     int
	Seed     uint64
	Interval uint64
}

func (o *PhasesOptions) defaults() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Runs == 0 {
		o.Runs = 30
	}
	if o.Interval == 0 {
		o.Interval = 25_000
	}
}

// phasedBenchmark builds a program with three starkly different phases:
// a compute-bound integer loop, a memory-bound pointer chase, and a branchy
// maze — repeated twice (A B C A B C), the SimPoint-style structure §4
// appeals to.
func phasedBenchmark() spec.Benchmark {
	return spec.Benchmark{
		Name: "phased", Lang: "synthetic",
		Notes: "three alternating phases: integer compute, pointer chase, branch maze",
		Build: func(scale float64) *ir.Module {
			mb := ir.NewModuleBuilder("phased")

			compute := mb.Func("compute", 2)
			x := compute.Mov(compute.Param(0))
			compute.Loop(compute.Param(1), func(i ir.Reg) {
				for u := 0; u < 8; u++ {
					compute.MovTo(x, compute.Add(compute.Mul(x, compute.ConstI(37)), compute.ConstI(int64(u+1))))
				}
			})
			compute.Ret(x)

			build := mb.Func("build", 1)
			nodes := build.Param(0)
			table := build.Alloc(1 << 19)
			build.Loop(nodes, func(j ir.Reg) {
				nd := build.Alloc(32)
				build.StoreH(nd, 8, ir.NoReg, j)
				build.StoreH(table, 0, j, nd)
			})
			build.Loop(nodes, func(j ir.Reg) {
				nd := build.LoadH(table, 0, j)
				k := build.Rem(build.Add(build.Mul(j, build.ConstI(2654435761)), build.ConstI(1)), nodes)
				build.StoreH(nd, 0, ir.NoReg, build.LoadH(table, 0, k))
			})
			build.Ret(table)

			chase := mb.Func("chase", 2)
			p := chase.LoadH(chase.Param(0), 0, ir.NoReg)
			chase.Loop(chase.Param(1), func(i ir.Reg) {
				chase.MovTo(p, chase.LoadH(p, 0, ir.NoReg))
			})
			chase.Ret(chase.LoadH(p, 8, ir.NoReg))

			maze := mb.Func("maze", 2)
			seed, rounds := maze.Param(0), maze.Param(1)
			mx := maze.Mov(seed)
			macc := maze.ConstI(0)
			maze.Loop(rounds, func(i ir.Reg) {
				maze.MovTo(mx, maze.Add(maze.Mul(mx, maze.ConstI(6364136223846793005)), maze.ConstI(1442695040888963407)))
				for d := 0; d < 10; d++ {
					nib := maze.And(maze.Shr(mx, maze.ConstI(int64(d*5+1))), maze.ConstI(15))
					var cond ir.Reg
					if d%2 == 0 {
						cond = maze.CmpLT(nib, maze.ConstI(13))
					} else {
						cond = maze.CmpLT(maze.ConstI(12), nib)
					}
					maze.If(cond, func() {
						maze.MovTo(macc, maze.Add(macc, maze.ConstI(int64(d+1))))
					}, func() {
						maze.MovTo(macc, maze.Xor(macc, maze.ConstI(int64(d*3+7))))
					})
				}
			})
			maze.Ret(macc)

			main := mb.Func("main", 0)
			ring := main.Call(build.Index(), main.ConstI(scaleN(scale, 8000)))
			acc := main.ConstI(0)
			main.LoopN(2, func(rep ir.Reg) {
				a := main.Call(compute.Index(), main.Add(main.ConstI(99), rep), main.ConstI(scaleN(scale, 14000)))
				bv := main.Call(chase.Index(), ring, main.ConstI(scaleN(scale, 60000)))
				cv := main.Call(maze.Index(), main.Add(main.ConstI(7), rep), main.ConstI(scaleN(scale, 6000)))
				main.MovTo(acc, main.Add(acc, main.Add(a, main.Add(bv, cv))))
			})
			main.Sink(acc)
			main.Ret(ir.NoReg)
			return mb.Module()
		},
	}
}

// scaleN scales a trip count.
func scaleN(scale float64, base int64) int64 {
	v := int64(scale * float64(base))
	if v < 1 {
		return 1
	}
	return v
}

// Phases runs the experiment.
func Phases(ctx context.Context, opts PhasesOptions) (*PhasesResult, error) {
	opts.defaults()
	b := phasedBenchmark()

	// 1. Trace one native run to show the phases: the run a native cell
	// makes at opts.Seed, with a sampler around its runtime.
	c, err := CompileBench(b, Config{Scale: opts.Scale, Level: compiler.O2})
	if err != nil {
		return nil, err
	}
	run, err := NewRun(c.Module, c.Cfg, opts.Seed^runSalt, nil)
	if err != nil {
		return nil, err
	}
	sampler := trace.New(run.Runtime, run.Machine, 40_000)
	_, err = interp.Run(c.Module, interp.Options{Machine: run.Machine, Runtime: sampler})
	series := sampler.Series()
	run.Release()
	if err != nil {
		return nil, err
	}

	// 2. Normality with one-time vs re-randomization.
	once := core.Options{Code: true, Stack: true, Heap: true}
	co, err := CompileBench(b, Config{Scale: opts.Scale, Level: compiler.O2, Stabilizer: &once})
	if err != nil {
		return nil, err
	}
	sso, err := co.Collect(ctx, opts.Runs, opts.Seed+100)
	if err != nil {
		return nil, err
	}
	so := sso.Seconds
	rr := core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: opts.Interval}
	cr, err := CompileBench(b, Config{Scale: opts.Scale, Level: compiler.O2, Stabilizer: &rr})
	if err != nil {
		return nil, err
	}
	ssr, err := cr.Collect(ctx, opts.Runs, opts.Seed+200)
	if err != nil {
		return nil, err
	}
	sr := ssr.Seconds

	return &PhasesResult{
		TraceText:  series.String(),
		PhaseCount: series.PhaseCount(0.10),
		SWOnce:     stats.ShapiroWilk(so).P,
		SWRerand:   stats.ShapiroWilk(sr).P,
		CVOnce:     stats.StdDev(so) / stats.Mean(so),
		CVRerand:   stats.StdDev(sr) / stats.Mean(sr),
		Runs:       opts.Runs,
	}, nil
}

// Table renders the experiment.
func (r *PhasesResult) Table() string {
	var sb strings.Builder
	sb.WriteString("Phase behavior (§4): a multi-phase program under STABILIZER\n")
	sb.WriteString(r.TraceText)
	fmt.Fprintf(&sb, "\none-time randomization:  Shapiro-Wilk p=%.3f, CV %.2f%%\n", r.SWOnce, r.CVOnce*100)
	fmt.Fprintf(&sb, "re-randomization:        Shapiro-Wilk p=%.3f, CV %.2f%%\n", r.SWRerand, r.CVRerand*100)
	if r.SWRerand >= 0.05 {
		sb.WriteString("-> normal under re-randomization despite the phases, as §4 argues\n")
	}
	return sb.String()
}
