package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/interp"
	"repro/internal/stats"
)

// The engine floor: on the host that runs it, the compiled engine must run
// the headline cell (experiment.CompileHeadline) at least floorRatio times
// as fast as the walk engine, judged by the lower bound of a 95% BCa
// interval rather than a point ratio. Both engines retire the same
// instructions for a seed, so their host-time ratio is their throughput
// ratio.
const (
	// floorPairs is the number of interleaved pairs of full runs, one run
	// per engine. On a 2-vCPU VM, at 20 the lower bound sits 0.14-0.37
	// below the ratio and a floor takes about 1.6 s; at 10 it fell up to
	// 0.64 below, and 40 narrowed it by 0.04 (median) for twice the time.
	floorPairs = 20
	// floorRatio is the least lower bound of mean(walk)/mean(compiled)
	// host time that passes.
	floorRatio = 1.8
)

// floorResult is the floor's verdict on two engines' host times.
type floorResult struct {
	Walk, Compiled float64 // mean host seconds a run
	Ratio          float64 // Walk/Compiled
	BCa            stats.Interval
}

func (r floorResult) pass() bool { return r.BCa.Lo >= floorRatio }

// engineFloor puts a 95% BCa interval on mean(walk)/mean(compiled): the
// interval gate.Compare puts on each row's speedup, with compare's default
// -boot and -seed.
func engineFloor(walk, compiled []float64) floorResult {
	_, bca := stats.BootstrapRatioCI(walk, compiled, 2000, 0.95, 1)
	r := floorResult{Walk: stats.Mean(walk), Compiled: stats.Mean(compiled), BCa: bca}
	r.Ratio = r.Walk / r.Compiled
	return r
}

// cmdFloor compiles the headline cell under each engine, makes one warm-up
// run of each, then times floorPairs pairs of full runs (never trace
// replays). Both runs of a pair use the same seed, and the engine that
// goes first alternates from pair to pair, so drift in the host's speed
// falls on both engines alike. It returns exitOK on a pass, exitGateFail
// below the floor, and exitInfra on an error.
func cmdFloor(args []string, w io.Writer) (int, error) {
	if len(args) != 0 {
		return exitInfra, fmt.Errorf("usage: szgate floor (it takes no flags or arguments)")
	}
	engines := []interp.Engine{interp.EngineCompiled, interp.EngineWalk}
	cells := make([]*experiment.Compiled, len(engines))
	for i, eng := range engines {
		cc, err := experiment.CompileHeadline(eng, nil)
		if err != nil {
			return exitInfra, err
		}
		// The warm-up run pays the module's lowering and the machine pool.
		if _, err := cc.Run(1); err != nil {
			return exitInfra, err
		}
		cells[i] = cc
	}
	secs := make([][]float64, len(engines))
	for p := range floorPairs {
		for k := range engines {
			i := (p + k) % len(engines)
			start := time.Now()
			if _, err := cells[i].Run(uint64(p) + 1); err != nil {
				return exitInfra, err
			}
			secs[i] = append(secs[i], time.Since(start).Seconds())
		}
	}
	r := engineFloor(secs[1], secs[0])
	fmt.Fprintf(w, "Engine floor: %s at scale %g, %s, noise off; %d interleaved pairs of full runs\n",
		cells[0].Bench.Name, cells[0].Cfg.Scale, cells[0].Cfg.Level, floorPairs)
	fmt.Fprintf(w, "  walk      %9.4f s a run (mean)\n", r.Walk)
	fmt.Fprintf(w, "  compiled  %9.4f s a run (mean)\n", r.Compiled)
	fmt.Fprintf(w, "  walk/compiled %.2fx, 95%% BCa CI [%.2fx, %.2fx]; floor %.2fx\n",
		r.Ratio, r.BCa.Lo, r.BCa.Hi, floorRatio)
	if !r.pass() {
		fmt.Fprintf(w, "FLOOR FAIL: the lower bound %.2fx is below the %.2fx floor\n", r.BCa.Lo, floorRatio)
		return exitGateFail, nil
	}
	fmt.Fprintf(w, "FLOOR PASS: the lower bound %.2fx reaches the %.2fx floor\n", r.BCa.Lo, floorRatio)
	return exitOK, nil
}
