// Package core implements the STABILIZER runtime — the paper's primary
// contribution. It randomizes (and periodically re-randomizes) the placement
// of code, stack frames, and heap objects while a program executes on the
// simulated machine.
//
// The runtime follows §3 of the paper closely:
//
//   - Code is randomized per function. At startup every relocatable function
//     is "trapped" (the paper writes an int3 over its first byte); the first
//     call relocates it into a shuffled code heap mapped below 4 GiB, builds
//     its relocation table immediately after the body, and patches the old
//     entry point with a jump.
//   - A timer re-randomizes: all live functions are trapped again, their old
//     locations go onto a pile, and the next trap garbage-collects the pile
//     by walking the stack and freeing every location no return address
//     points into.
//   - Calls and global accesses from relocated code go through the
//     function-adjacent relocation table (the indirection is a real memory
//     access on the simulated machine, so it has its honest cost).
//   - The stack is randomized by padding each call with a pad drawn from a
//     per-function 256-entry pad table (scaled by 16 for alignment); the
//     tables are refilled with fresh random bytes at every re-randomization.
//   - The heap is randomized by the shuffling layer of internal/heap.
//
// Every randomization can be enabled independently (§2.5). The timer is a
// cycle-count interval: simulated time has no wall clock, so the paper's
// 500 ms default scales down to keep ≳30 re-randomizations per run — the
// sample count the Central Limit Theorem argument needs.
package core

import (
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rng"
)

// Options selects which randomizations run and how.
type Options struct {
	// Code, Stack, and Heap enable the three randomizations independently.
	Code  bool
	Stack bool
	Heap  bool
	// Rerandomize enables periodic re-randomization; without it layout is
	// randomized once at startup (the "one-time" configuration of Figure 5).
	Rerandomize bool
	// Interval is the re-randomization period in simulated cycles
	// (default 100 000 — the paper's 500 ms scaled to simulated run lengths).
	Interval uint64
	// ShuffleN is the shuffling-layer depth (default heap.DefaultShuffleN).
	ShuffleN int
	// Seed drives all randomization; equal seeds give equal layouts.
	Seed uint64
	// UseTLSF selects the TLSF base allocator instead of the segregated one.
	UseTLSF bool
	// UseDieHard uses the DieHard-style randomized allocator directly as
	// the heap, as STABILIZER's original implementation did (§3.2, §7).
	// DieHard needs no shuffling layer — it is fully randomized — but its
	// lack of reuse and sparse placement "can lead to substantial
	// overhead". Takes precedence over UseTLSF when Heap is set.
	UseDieHard bool
	// FineGrainCode randomizes code at basic-block granularity: each
	// relocation also permutes the function's blocks, stitching them with
	// explicit jumps. This is the paper's proposed §8 extension
	// ("STABILIZER could relocate individual basic blocks at runtime"),
	// which additionally randomizes intra-function branch-predictor and
	// I-cache relationships. Requires Code.
	FineGrainCode bool
	// Adaptive implements the paper's other §8 proposal: "sampling with
	// performance counters could be used to detect layout-related
	// performance problems like cache misses and branch mispredictions.
	// When STABILIZER detects these problems, it could trigger a complete
	// or partial re-randomization." With Adaptive set, the runtime samples
	// I-cache miss and misprediction rates every Interval/4 cycles and
	// fires an early re-randomization when the current window exceeds
	// AdaptiveFactor times the running average. Requires Rerandomize.
	Adaptive bool
	// AdaptiveFactor is the trigger threshold (default 1.5).
	AdaptiveFactor float64
}

// AllRandomizations returns the full configuration the paper calls
// "code.heap.stack" with re-randomization on.
func AllRandomizations(seed uint64) Options {
	return Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Seed: seed}
}

// EnabledString renders the configuration the way Figure 6 labels it, e.g.
// "code.heap.stack".
func (o Options) EnabledString() string {
	s := ""
	add := func(on bool, name string) {
		if !on {
			return
		}
		if s != "" {
			s += "."
		}
		s += name
	}
	add(o.Code, "code")
	add(o.Heap, "heap")
	add(o.Stack, "stack")
	if s == "" {
		return "none"
	}
	return s
}

// Costs models the runtime's own overheads in cycles.
type Costs struct {
	Trap        uint64 // SIGTRAP delivery + handler entry
	RelocPer16B uint64 // function copy cost per 16 bytes
	TimerFixed  uint64 // timer signal handling
	TimerPerFn  uint64 // per-function work in the timer handler
	PadExtra    uint64 // extra instructions per call for stack padding
	ShuffleMall uint64 // extra malloc work in the shuffling layer
	ShuffleFree uint64 // extra free work in the shuffling layer
}

// DefaultCosts returns the calibrated runtime cost model.
func DefaultCosts() Costs {
	// Trap and timer costs are scaled to the compressed re-randomization
	// interval: the paper re-randomizes every 500 ms (~1.6e9 cycles), this
	// reproduction every ~1e5 simulated cycles, so charging literal
	// microsecond-scale signal costs would overstate the runtime's share of
	// execution by four orders of magnitude.
	return Costs{
		Trap:        40,
		RelocPer16B: 1,
		TimerFixed:  100,
		TimerPerFn:  2,
		PadExtra:    3,
		ShuffleMall: 8,
		ShuffleFree: 6,
	}
}

// funcState is the runtime's private per-function state. Where the
// function's current copy sits (its code base, block offsets under
// fine-grain randomization, and relocation table) is published in the
// layout table instead, which the engines read directly.
type funcState struct {
	allocBase mem.Addr // code-heap block backing it (0 if static/piled)
	allocSize uint64
	trapped   bool
}

type pileEntry struct {
	base mem.Addr
	size uint64
}

// Stabilizer is the runtime; it implements interp.Runtime.
type Stabilizer struct {
	// lay is the layout table the engines read: handleTrap writes a
	// function's new placement into it, Tick re-arms its TickAt.
	lay interp.Layout

	m    *ir.Module
	mach *machine.Machine
	as   *mem.AddressSpace
	opts Options
	cost Costs

	rStack *rng.Marsaglia
	rCode  *rng.Marsaglia

	stackBase mem.Addr

	codeHeap heap.Allocator
	funcs    []funcState
	slotCnt  []int // relocation slots per function

	pile       []pileEntry
	gcPending  bool
	nextRerand uint64
	timerArmed bool
	stackFn    func() []mem.Addr // most recent interpreter stack walker

	// Adaptive sampling state.
	nextSample   uint64
	sampleWindow uint64
	lastSample   counterSnapshot
	rateEWMA     float64
	ewmaPrimed   bool
	coolingDown  bool // skip the comparison right after a re-randomization

	padTables  [][]uint8
	padIndex   []uint8
	padTblAddr []mem.Addr

	heapAlloc heap.Allocator

	// Stats counts runtime events for tests and reports.
	Stats struct {
		Traps            uint64
		Relocations      uint64
		Rerands          uint64
		GCFreed          uint64
		GCKept           uint64
		AdaptiveTriggers uint64
	}
}

// counterSnapshot captures the machine counters an adaptive sample compares.
type counterSnapshot struct {
	instructions uint64
	l1iMisses    uint64
	mispredicts  uint64
}

func (s *Stabilizer) snapshot() counterSnapshot {
	return counterSnapshot{
		instructions: s.mach.Instructions,
		l1iMisses:    s.mach.L1I.Misses,
		mispredicts:  s.mach.BP.DirectionMispredicts + s.mach.BP.TargetMispredicts,
	}
}

const (
	padTableSize  = 256
	padIndexSize  = 8 // one index byte, padded for alignment
	relocSlotSize = 8
)

// New builds a Stabilizer runtime for module m. The module should be
// compiled with compiler.Options.Stabilize when any randomization is enabled
// (the szc driver does this). staticFuncs and globalAddrs come from the
// static linker image; the runtime needs them for unrandomized
// configurations and for globals, which never move.
func New(m *ir.Module, mach *machine.Machine, as *mem.AddressSpace,
	staticFuncs, globalAddrs []mem.Addr, opts Options) (*Stabilizer, error) {

	if len(staticFuncs) != len(m.Funcs) || len(globalAddrs) != len(m.Globals) {
		return nil, fmt.Errorf("core: image does not match module (%d/%d funcs, %d/%d globals)",
			len(staticFuncs), len(m.Funcs), len(globalAddrs), len(m.Globals))
	}
	if opts.Interval == 0 {
		opts.Interval = 100_000
	}
	if opts.ShuffleN == 0 {
		opts.ShuffleN = heap.DefaultShuffleN
	}
	if opts.AdaptiveFactor == 0 {
		opts.AdaptiveFactor = 1.5
	}
	master := rng.NewMarsaglia(opts.Seed)
	s := &Stabilizer{
		lay:        interp.Layout{Funcs: make([]interp.FuncLayout, len(m.Funcs)), Globals: globalAddrs},
		m:          m,
		mach:       mach,
		as:         as,
		opts:       opts,
		cost:       DefaultCosts(),
		rStack:     master.Split(),
		rCode:      master.Split(),
		stackBase:  as.StackBase(),
		funcs:      make([]funcState, len(m.Funcs)),
		timerArmed: opts.Rerandomize,
	}
	rHeap := master.Split()

	// Heap: with heap randomization on, the shuffling layer wraps the
	// power-of-two size-segregated base (or TLSF, §3.2); with it off, the
	// program keeps the ordinary fine-grained allocator, as an
	// unrandomized build keeps libc malloc.
	switch {
	case opts.Heap && opts.UseDieHard:
		s.heapAlloc = heap.NewDieHard(as, rHeap)
	case opts.Heap:
		var base heap.Allocator
		if opts.UseTLSF {
			base = heap.NewTLSF(as, 1<<22)
		} else {
			base = heap.NewSegregated(as)
		}
		s.heapAlloc = heap.NewShuffle(base, rHeap, opts.ShuffleN)
	default:
		s.heapAlloc = heap.NewTLSF(as, 1<<22)
	}

	// Code: a shuffled heap of executable memory below 4 GiB (§3.3, §3.5).
	for fi, a := range staticFuncs {
		s.lay.Funcs[fi].Code = a
	}
	if opts.Code {
		s.codeHeap = heap.NewShuffle(heap.NewSegregatedAt(as, mem.MapLow32), s.rCode.Split(), opts.ShuffleN)
		s.buildRelocSlots()
		// Initialization (Figure 3a): every relocatable function starts
		// trapped at its static location.
		for fi := range s.funcs {
			s.funcs[fi].trapped = !m.Funcs[fi].NoRelocate
		}
	}
	s.nextRerand = mach.Cycles + opts.Interval
	if opts.Adaptive {
		s.sampleWindow = opts.Interval / 4
		if s.sampleWindow == 0 {
			s.sampleWindow = 1
		}
		s.nextSample = mach.Cycles + s.sampleWindow
		s.lastSample = counterSnapshot{}
	}
	s.rearmTick()

	// Stack: per-function pad tables with simulated addresses, so loading a
	// pad is a real (cache-visible) memory access. Many functions mean many
	// tables — the working-set pressure behind the paper's gobmk/gcc/
	// perlbench overhead (§5.2).
	if opts.Stack {
		n := len(m.Funcs)
		s.padTables = make([][]uint8, n)
		s.padIndex = make([]uint8, n)
		s.padTblAddr = make([]mem.Addr, n)
		region, err := as.Map(uint64(n)*(padTableSize+padIndexSize), mem.MapAnywhere)
		if err != nil {
			return nil, fmt.Errorf("core: mapping pad tables: %w", err)
		}
		for fi := 0; fi < n; fi++ {
			s.padTables[fi] = make([]uint8, padTableSize)
			s.padTblAddr[fi] = region.Base + mem.Addr(fi*(padTableSize+padIndexSize))
		}
		s.refillPadTables()
	}
	return s, nil
}

// buildRelocSlots assigns each function's referenced symbols (callees and
// globals) consecutive slots in its relocation table, publishing their byte
// offsets in the layout table. Two copies of a function never share a table
// (§3.3), but the slot layout is fixed per function.
func (s *Stabilizer) buildRelocSlots() {
	nf, ng := len(s.m.Funcs), len(s.m.Globals)
	s.slotCnt = make([]int, nf)
	for fi, f := range s.m.Funcs {
		tbl := make([]int32, nf+ng)
		for i := range tbl {
			tbl[i] = -1
		}
		n := int32(0)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpCall:
					if tbl[in.Sym] == -1 {
						tbl[in.Sym] = n * relocSlotSize
						n++
					}
				case ir.OpLoadG, ir.OpStoreG, ir.OpLoadGF, ir.OpStoreGF:
					if tbl[nf+int(in.Sym)] == -1 {
						tbl[nf+int(in.Sym)] = n * relocSlotSize
						n++
					}
				}
			}
		}
		s.lay.Funcs[fi].Slots = tbl
		s.slotCnt[fi] = int(n)
	}
}

// Layout implements interp.Runtime. Globals never move; a function's entry
// changes when a trap relocates it (handleTrap), and TickAt when Tick runs.
func (s *Stabilizer) Layout() *interp.Layout { return &s.lay }

// StackBase implements interp.Runtime.
func (s *Stabilizer) StackBase() mem.Addr { return s.stackBase }

// BeforeCall implements interp.Runtime: it is the trap site (relocation on
// demand) and the stack pad site.
func (s *Stabilizer) BeforeCall(fn int) uint64 {
	if s.opts.Code && s.funcs[fn].trapped {
		s.handleTrap(fn)
	}
	var pad uint64
	if s.opts.Stack {
		// Figure 4: load the index byte, load the index-th pad byte,
		// increment the index (wrapping), scale by 16.
		// A one-byte load touches the one line its aligned word sits in,
		// so Data8 on that word charges exactly what Data(a, 1) would.
		idx := s.padIndex[fn]
		s.mach.Data8((s.padTblAddr[fn] + padTableSize) &^ 7)  // index byte
		s.mach.Data8((s.padTblAddr[fn] + mem.Addr(idx)) &^ 7) // pad entry
		s.mach.Retire(s.cost.PadExtra)                        // inserted instructions
		pad = uint64(s.padTables[fn][idx]) * 16
		s.padIndex[fn] = idx + 1 // uint8 wraparound is the paper's wraparound
	}
	return pad
}

// handleTrap relocates fn into the code heap (Figure 3b), running the pile
// garbage collector first if a re-randomization is pending (Figure 3d), and
// publishes the new copy in the layout table.
func (s *Stabilizer) handleTrap(fn int) {
	st := &s.funcs[fn]
	s.Stats.Traps++
	s.mach.Stall(s.cost.Trap)

	if s.gcPending {
		s.collectPile()
		s.gcPending = false
	}

	f := s.m.Funcs[fn]
	bodySize := f.Size
	if s.opts.FineGrainCode {
		// Permuted blocks need an explicit jump where fall-through used to
		// suffice: ~5 bytes of stitch per block.
		bodySize += uint64(len(f.Blocks)) * blockStitchSize
	}
	size := bodySize + uint64(s.slotCnt[fn])*relocSlotSize
	base, err := s.codeHeap.Alloc(size)
	if err != nil {
		// The code heap is runtime-internal: its demand is bounded by the
		// module's code size, so failure here is a driver bug (e.g. an
		// artificially tiny map budget), never program behavior.
		panic(fmt.Sprintf("core: code heap allocation failed: %v", err))
	}
	// Copy the body and build the relocation table at its end.
	s.mach.Stall(s.cost.RelocPer16B * (size + 15) / 16)

	st.allocBase = base
	st.allocSize = size
	st.trapped = false
	fl := &s.lay.Funcs[fn]
	fl.Code = base
	fl.Reloc = base + mem.Addr(bodySize)
	if s.opts.FineGrainCode {
		// A fresh slice per copy: activations of older copies keep theirs.
		fl.Blocks = s.permuteBlocks(f)
	}
	s.Stats.Relocations++
}

// blockStitchSize is the modeled jmp rel32 each permuted block ends with.
const blockStitchSize = 5

// permuteBlocks lays the function's blocks out in a random order and returns
// the per-block offsets of this copy.
func (s *Stabilizer) permuteBlocks(f *ir.Function) []uint64 {
	n := len(f.Blocks)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	s.rCode.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	offs := make([]uint64, n)
	cur := uint64(funcHeaderSize)
	for _, bi := range order {
		offs[bi] = cur
		cur += f.Blocks[bi].Size + blockStitchSize
	}
	return offs
}

// funcHeaderSize mirrors the prologue bytes the size model reserves.
const funcHeaderSize = 8

// collectPile frees piled code locations that no stack return address pins
// (the mark phase of §3.3's simple collector).
func (s *Stabilizer) collectPile() {
	if len(s.pile) == 0 {
		return
	}
	var stack []mem.Addr
	if s.stackFn != nil {
		stack = s.stackFn()
	}
	kept := s.pile[:0]
	for _, e := range s.pile {
		onStack := false
		for _, ra := range stack {
			if ra >= e.base && ra < e.base+mem.Addr(e.size) {
				onStack = true
				break
			}
		}
		if onStack {
			kept = append(kept, e)
			s.Stats.GCKept++
		} else {
			if err := s.codeHeap.Free(e.base); err != nil {
				panic(fmt.Sprintf("core: code heap free failed: %v", err))
			}
			s.Stats.GCFreed++
		}
	}
	s.pile = kept
}

// Tick implements interp.Runtime: the re-randomization timer (Figure 3c)
// and, when enabled, the §8 adaptive counter sampler.
func (s *Stabilizer) Tick(stack func() []mem.Addr) {
	s.stackFn = stack
	if !s.timerArmed {
		return
	}
	if s.opts.Adaptive && s.mach.Cycles >= s.nextSample {
		s.adaptiveSample()
	}
	if s.mach.Cycles >= s.nextRerand {
		s.rerandomize()
	}
	s.rearmTick()
}

// rearmTick publishes the first cycle at which Tick has work: the next
// re-randomization or, under Adaptive, the next counter sample, whichever
// comes first. Without the timer Tick never has work.
func (s *Stabilizer) rearmTick() {
	s.lay.TickAt = math.MaxUint64
	if !s.timerArmed {
		return
	}
	s.lay.TickAt = s.nextRerand
	if s.opts.Adaptive && s.nextSample < s.lay.TickAt {
		s.lay.TickAt = s.nextSample
	}
}

// adaptiveSample compares this window's layout-problem rate (I-cache misses
// and mispredictions per instruction) against a running average; a spike
// means the current random layout is unlucky, and re-randomizing now is
// cheaper than living with it until the timer.
func (s *Stabilizer) adaptiveSample() {
	s.nextSample = s.mach.Cycles + s.sampleWindow
	cur := s.snapshot()
	dInstr := cur.instructions - s.lastSample.instructions
	dBad := (cur.l1iMisses - s.lastSample.l1iMisses) +
		(cur.mispredicts - s.lastSample.mispredicts)
	s.lastSample = cur
	if dInstr < 1000 {
		return // too little progress to estimate a rate
	}
	rate := float64(dBad) / float64(dInstr)
	if s.coolingDown {
		// The window right after a re-randomization is cold-cache warmup;
		// comparing it against the baseline would re-trigger forever.
		s.coolingDown = false
		return
	}
	if !s.ewmaPrimed {
		s.rateEWMA = rate
		s.ewmaPrimed = true
		return
	}
	if rate > s.opts.AdaptiveFactor*s.rateEWMA && s.rateEWMA > 0 {
		s.Stats.AdaptiveTriggers++
		s.rerandomize()
		return
	}
	s.rateEWMA = 0.875*s.rateEWMA + 0.125*rate
}

// rerandomize is the §3.3 timer body: trap all live functions, pile their
// memory, refill pad tables, and rearm the timer.
func (s *Stabilizer) rerandomize() {
	s.nextRerand = s.mach.Cycles + s.opts.Interval
	s.Stats.Rerands++
	s.mach.Stall(s.cost.TimerFixed)
	s.coolingDown = true

	if s.opts.Code {
		// Trap every relocated function; its memory goes on the pile and is
		// freed once no return address pins it.
		live := uint64(0)
		for fi := range s.funcs {
			st := &s.funcs[fi]
			if s.m.Funcs[fi].NoRelocate {
				continue
			}
			if st.allocBase != 0 {
				s.pile = append(s.pile, pileEntry{base: st.allocBase, size: st.allocSize})
				st.allocBase = 0
			}
			st.trapped = true
			live++
		}
		s.gcPending = true
		s.mach.Stall(s.cost.TimerPerFn * live)
	}
	if s.opts.Stack {
		s.refillPadTables()
		s.mach.Stall(s.cost.TimerPerFn * uint64(len(s.padTables)))
	}
}

// refillPadTables fills every function's pad table with fresh random bytes.
func (s *Stabilizer) refillPadTables() {
	for fi := range s.padTables {
		tbl := s.padTables[fi]
		for i := 0; i < len(tbl); i += 4 {
			v := s.rStack.Next()
			tbl[i] = uint8(v)
			tbl[i+1] = uint8(v >> 8)
			tbl[i+2] = uint8(v >> 16)
			tbl[i+3] = uint8(v >> 24)
		}
	}
}

// Alloc implements interp.Runtime. Allocator faults (exhaustion) propagate
// as typed traps for the interpreter to surface.
func (s *Stabilizer) Alloc(size uint64) (mem.Addr, error) {
	s.mach.Stall(interp.MallocCost)
	if s.opts.Heap {
		s.mach.Stall(s.cost.ShuffleMall)
	}
	return s.heapAlloc.Alloc(size)
}

// Free implements interp.Runtime.
func (s *Stabilizer) Free(addr mem.Addr) error {
	s.mach.Stall(interp.FreeCost)
	if s.opts.Heap {
		s.mach.Stall(s.cost.ShuffleFree)
	}
	return s.heapAlloc.Free(addr)
}

// SetHeapAllocator replaces the program heap. The semantic-invariance
// oracle uses this to sweep the allocator axis of its matrix (and its tests
// to inject deliberately layout-dependent allocators) without duplicating
// the Options plumbing.
func (s *Stabilizer) SetHeapAllocator(a heap.Allocator) { s.heapAlloc = a }
