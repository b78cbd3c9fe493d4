// Package trace samples machine counters over fixed cycle windows while a
// program runs, producing the time series behind phase analysis.
//
// §4 of the paper argues that re-randomization normalizes execution times
// even for "programs with phase behavior", by decomposing them into
// subprograms that are each normalized. The sampler makes phases observable
// (IPC and miss-rate series), and the phases experiment in
// internal/experiment tests the §4 claim directly.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Window is one sampling interval's counter deltas.
type Window struct {
	StartCycle uint64
	machine.Counters
}

// Series is the recorded time series.
type Series struct {
	WindowCycles uint64
	Windows      []Window
}

// Sampler wraps a Runtime and records counter windows as the program runs.
// It forwards every Runtime call to the inner runtime unchanged, and the
// inner runtime's layout table with TickAt lowered to its own next window,
// so it can wrap the native runtime or the STABILIZER runtime alike.
type Sampler struct {
	inner  interp.Runtime
	lay    *interp.Layout
	mach   *machine.Machine
	window uint64
	next   uint64
	last   machine.Counters
	series Series
}

// New wraps inner, sampling every windowCycles cycles.
func New(inner interp.Runtime, mach *machine.Machine, windowCycles uint64) *Sampler {
	if windowCycles == 0 {
		windowCycles = 50_000
	}
	return &Sampler{
		inner:  inner,
		mach:   mach,
		window: windowCycles,
		next:   mach.Cycles + windowCycles,
		last:   mach.Snapshot(),
		series: Series{WindowCycles: windowCycles},
	}
}

// Series returns the recorded windows (call after the run).
func (s *Sampler) Series() *Series {
	// Flush the partial final window.
	s.capture()
	return &s.series
}

func (s *Sampler) capture() {
	cur := s.mach.Snapshot()
	delta := cur.Sub(s.last)
	if delta.Cycles == 0 {
		return
	}
	s.series.Windows = append(s.series.Windows, Window{
		StartCycle: s.last.Cycles,
		Counters:   delta,
	})
	s.last = cur
}

// Runtime interface delegation.

func (s *Sampler) StackBase() mem.Addr                 { return s.inner.StackBase() }
func (s *Sampler) BeforeCall(fn int) uint64            { return s.inner.BeforeCall(fn) }
func (s *Sampler) Alloc(size uint64) (mem.Addr, error) { return s.inner.Alloc(size) }
func (s *Sampler) Free(addr mem.Addr) error            { return s.inner.Free(addr) }

// Layout forwards the inner runtime's table: the Funcs and Globals entries
// are the inner runtime's own, which it keeps current in place, while
// TickAt is the earlier of the inner deadline and the next window, so an
// engine that calls Tick only from TickAt still samples every window.
func (s *Sampler) Layout() *interp.Layout {
	inner := s.inner.Layout()
	if s.lay == nil {
		s.lay = &interp.Layout{Funcs: inner.Funcs, Globals: inner.Globals}
	}
	s.lay.TickAt = min(inner.TickAt, s.next)
	return s.lay
}

// Tick samples when the window elapses, then forwards, and re-arms TickAt
// for the next window and whatever deadline the inner Tick set.
func (s *Sampler) Tick(stack func() []mem.Addr) {
	if s.mach.Cycles >= s.next {
		s.capture()
		s.next = s.mach.Cycles + s.window
	}
	s.inner.Tick(stack)
	s.Layout()
}

// IPCSeries returns instructions-per-cycle per window.
func (s *Series) IPCSeries() []float64 {
	out := make([]float64, len(s.Windows))
	for i, w := range s.Windows {
		out[i] = w.IPC()
	}
	return out
}

// MissSeries returns (L1D+L2 misses)/instruction per window.
func (s *Series) MissSeries() []float64 {
	out := make([]float64, len(s.Windows))
	for i, w := range s.Windows {
		if w.Instructions > 0 {
			out[i] = float64(w.L1DMisses+w.L2Misses) / float64(w.Instructions)
		}
	}
	return out
}

// PhaseCount estimates how many distinct phases the series contains: runs of
// windows whose IPC stays within a tolerance band count as one phase.
func (s *Series) PhaseCount(tolerance float64) int {
	ipc := s.IPCSeries()
	if len(ipc) == 0 {
		return 0
	}
	phases := 1
	ref := ipc[0]
	for _, v := range ipc[1:] {
		if v > ref*(1+tolerance) || v < ref*(1-tolerance) {
			phases++
			ref = v
		}
	}
	return phases
}

// sparkRunes are the eight-level bars of the sparkline rendering.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series of values as a compact unicode strip.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// String renders the series as IPC and miss-rate sparklines plus a summary.
func (s *Series) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d windows of %d cycles\n", len(s.Windows), s.WindowCycles)
	fmt.Fprintf(&sb, "IPC        %s\n", Sparkline(s.IPCSeries()))
	fmt.Fprintf(&sb, "miss rate  %s\n", Sparkline(s.MissSeries()))
	fmt.Fprintf(&sb, "phases (10%% IPC tolerance): %d\n", s.PhaseCount(0.10))
	return sb.String()
}
