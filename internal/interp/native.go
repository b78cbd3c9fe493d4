package interp

import (
	"math"

	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Runtime cost constants shared by all runtimes: the modeled cycle cost of
// the allocator's own bookkeeping.
const (
	MallocCost = 30
	FreeCost   = 20
)

// NativeRuntime is the baseline execution environment: functions and globals
// at the fixed addresses the static linker assigned, stack frames packed
// back to back, and a conventional heap. It is "a binary": one point in the
// space of layouts, sampled over and over on every run — the methodological
// problem the paper begins from.
type NativeRuntime struct {
	FuncAddrs   []mem.Addr
	GlobalAddrs []mem.Addr
	Stack       mem.Addr
	Heap        heap.Allocator
	Mach        *machine.Machine

	layout *Layout
}

// Layout implements Runtime: a static table of the linker's addresses, with
// direct calls, absolute globals and no timer. It is built on first use.
func (n *NativeRuntime) Layout() *Layout {
	if n.layout == nil {
		l := &Layout{Funcs: make([]FuncLayout, len(n.FuncAddrs)), Globals: n.GlobalAddrs, TickAt: math.MaxUint64}
		for fn, a := range n.FuncAddrs {
			l.Funcs[fn].Code = a
		}
		n.layout = l
	}
	return n.layout
}

// StackBase implements Runtime.
func (n *NativeRuntime) StackBase() mem.Addr { return n.Stack }

// BeforeCall implements Runtime; native calls have no padding or extra work.
func (n *NativeRuntime) BeforeCall(fn int) uint64 { return 0 }

// Alloc implements Runtime.
func (n *NativeRuntime) Alloc(size uint64) (mem.Addr, error) {
	n.Mach.Stall(MallocCost)
	return n.Heap.Alloc(size)
}

// Free implements Runtime.
func (n *NativeRuntime) Free(addr mem.Addr) error {
	n.Mach.Stall(FreeCost)
	return n.Heap.Free(addr)
}

// Tick implements Runtime; the native runtime has no timers.
func (n *NativeRuntime) Tick(stack func() []mem.Addr) {}
