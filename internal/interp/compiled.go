// The compiled execution engine.
//
// runCompiled executes a pre-lowered module (see lower.go): each block is a
// flat slice of closures driven by a loop that mirrors the walk engine's
// exec()/call() step for step. The engines must be indistinguishable to
// every observer — machine counters, Recorder digests, Observer windows,
// traps, exceptions, profiles — so each divergence-capable point below
// carries the walk line it mirrors in spirit. What the compiled engine
// changes is pure host-side cost:
//
//   - dispatch: a flat switch over pre-decoded cinstr structs (one jump
//     per possibly-fused instruction) instead of a tree-walk switch with
//     per-operand decoding, with copy-propagated and dead-code-eliminated
//     register traffic (see lower.go);
//   - machine entry: an inline MRU probe for 8-byte data accesses, whose
//     misses enter machine.Data8Miss directly, and FetchPre (see
//     machine/fastpath.go) instead of the general Data/Fetch, with
//     instruction-fetch set/tag lookups memoized per layout epoch;
//   - runtime entry: code bases, block offsets, relocation slots and
//     global addresses are read from the runtime's Layout table, so the
//     runtime is called only for BeforeCall, Alloc, Free and, from the
//     cycle the table names in TickAt, Tick;
//   - allocation: register files and frame slots come from a grow-only
//     arena released on return, whose blocks are reused across runs, and
//     per-block runtime bookkeeping reuses pre-bound closures, so
//     steady-state execution does not allocate.
//
// The same block loop records a run's branch directions and address
// operands into a Trace, and replays them under another layout (see
// trace.go).
package interp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trap"
)

// cframe is one activation of the compiled engine. Frames are reused by
// recursion depth; regs and stack come from the arena.
type cframe struct {
	fn         int
	lf         *lowFunc
	regs       []uint64
	stack      []uint64
	frameBase  mem.Addr
	fl         *FuncLayout // the function's live layout entry
	ep         *fnEpoch
	blockStart uint64
	rbs        []replayBlock // the function's replay lists, in a replay
}

// arena is a grow-only bump allocator for register files and frame slots.
// Allocations are zeroed (matching the fresh make() the walk engine does
// per call) and released wholesale when the call returns, so steady-state
// execution stops paying the allocator.
type arena struct {
	blocks [][]uint64
	bi     int
	top    int
}

// arenas recycles arenas, blocks and all, across runs. Because alloc zeroes
// every slice it hands out, nothing one run leaves in a block is visible to
// the next.
var arenas = sync.Pool{New: func() any { return new(arena) }}

type arenaMark struct{ bi, top int }

const arenaBlockWords = 1 << 16

func (a *arena) mark() arenaMark { return arenaMark{a.bi, a.top} }

func (a *arena) release(m arenaMark) { a.bi, a.top = m.bi, m.top }

func (a *arena) alloc(n int) []uint64 {
	for {
		if a.bi < len(a.blocks) {
			blk := a.blocks[a.bi]
			if a.top+n <= len(blk) {
				s := blk[a.top : a.top+n : a.top+n]
				a.top += n
				clear(s)
				return s
			}
			if a.bi+1 < len(a.blocks) && n <= len(a.blocks[a.bi+1]) {
				a.bi++
				a.top = 0
				continue
			}
		}
		size := arenaBlockWords
		if n > size {
			size = n
		}
		a.blocks = append(a.blocks, make([]uint64, size))
		a.bi = len(a.blocks) - 1
		a.top = 0
	}
}

// fnEpoch is the per-epoch precomputation for one function: each block's
// resolved PC and terminator PC, plus its instruction-fetch lines with
// set-index/tag lookups memoized (machine.PrepareFetch). Only a
// re-randomization boundary — a new (codeBase, offsets) snapshot — pays this
// cost again.
type fnEpoch struct {
	blocks []epochBlock
	lines  []machine.PreLine
}

type epochBlock struct {
	pc       mem.Addr
	termPC   mem.Addr
	fetchOff int32
	fetchEnd int32
	// tlbGen/l1iGen record the TLB and L1I mutation generations
	// (machine.Cache.Gen) at the last execution where every fetch line of
	// this block MRU-hit. While both generations are unchanged no tag in
	// either cache has moved, so the block's lines are provably still
	// MRU-resident and the fetch collapses to two bulk hit-counter adds
	// without re-probing. Initialized to ^0, which Gen never reaches, so a
	// freshly built epoch always verifies before taking the bulk path.
	tlbGen uint64
	l1iGen uint64
}

// cvm is the compiled engine's per-run state: the same fields as the walk
// engine's interp, plus the lowered module, arena, frame pool, and each
// function's current layout epoch.
type cvm struct {
	lm   *lowModule
	m    *ir.Module
	mach *machine.Machine
	rt   Runtime
	lay  *Layout

	globals [][]uint64
	objects []heapObject
	freeObj []int

	sp        mem.Addr
	stackLow  mem.Addr
	output    uint64
	steps     uint64
	maxSteps  uint64
	rec       *Recorder
	interrupt func() error
	nextPoll  uint64
	stopAt    uint64
	callStack []callRecord
	ras       [rasDepth]mem.Addr
	rasLen    int
	profile   []uint64
	obs       Observer
	obsLast   machine.Counters
	obsStack  []int

	arena     *arena
	frames    []*cframe
	epochHot  []epochHot
	tickStack func() []mem.Addr

	// A recording run (tw set) stages its trace in w; a replay (replaying
	// set) reads one through rd, and rbs holds the module's replay lists.
	// traced is either. A replay keeps no registers, globals or heap
	// contents: excReplay stands in for an exception value, which only
	// registers would read.
	tw        *traceWriter
	w         traceWriter
	replaying bool
	traced    bool
	rd        traceReader
	rbs       [][]replayBlock
	excReplay uint64

	// Open-coded Data8 probe state (machine.MRUView): the live TLB and L1D
	// tag arrays plus lookup geometry, cached here so fastData8 inlines
	// into the dispatch loop. Slice identities are stable for the machine's
	// lifetime (Flush and Reset clear in place).
	tlbTags, l1dTags   []uint64
	tlbShift, l1dShift uint
	tlbMask, l1dMask   uint64
	tlbWays, l1dWays   uint64
	lineMask           uint64

	// z inflates a compressed trace's chunks for a replay (see trace.go).
	z *inflater
}

// epochHot is a function's current layout epoch. Between
// re-randomizations every call to a function sees the same (codeBase,
// offsets) snapshot, so the lookup is a pointer compare. A new snapshot
// replaces the slot's epoch; returning to an older snapshot rebuilds it,
// which is safe because live frames hold their own *fnEpoch. core's
// permuteBlocks allocates a fresh offsets slice per copy and never mutates
// it afterwards (activations snapshot it), so the first element's address
// identifies the permutation — and, being held by the slot, cannot be
// recycled while the slot compares against it.
type epochHot struct {
	codeBase mem.Addr
	offs     *uint64
	ep       *fnEpoch
}

// runCompiled executes module m with the compiled engine. It mirrors
// runWalk's setup, fault handling, and exit recording exactly. With
// opts.Capture it records into that trace, with opts.Replay it replays one.
func runCompiled(m *ir.Module, opts Options) (res Result, err error) {
	en := &cvm{
		lm:        lowered(m),
		m:         m,
		mach:      opts.Machine,
		rt:        opts.Runtime,
		lay:       opts.Runtime.Layout(),
		maxSteps:  opts.MaxSteps,
		interrupt: opts.Interrupt,
		rec:       opts.Record,
		arena:     arenas.Get().(*arena),
	}
	// A trapped run unwinds without releasing its frames.
	en.arena.release(arenaMark{})
	defer arenas.Put(en.arena)
	if tr := opts.Replay; tr != nil {
		if err := en.rd.open(tr, en.lm, en.arena); err != nil {
			return Result{}, err
		}
		if tr.compress {
			en.z = inflaters.Get().(*inflater)
			defer en.closeReplay()
		}
		en.replaying, en.traced = true, true
		en.rbs = en.lm.replayForm()
	}
	if tr := opts.Capture; tr != nil {
		switch {
		case tr.sealed || tr.lm != nil:
			return Result{}, errors.New("interp: capture into a trace that is not empty")
		case tr.claim != nil && tr.claim != en.lm:
			return Result{}, errors.New("interp: capture into a trace claimed for another module")
		}
		// A module with a block whose operands fit no chunk records nothing.
		if en.lm.maxOperands <= traceChunkSize {
			en.w.start(tr, en.lm, en.arena)
			en.tw, en.traced = &en.w, true
		}
		// A recording whose run fails leaves nothing to replay.
		defer func() {
			if err != nil {
				tr.Release()
			}
		}()
	}
	en.epochHot = make([]epochHot, len(m.Funcs))
	en.rearmStop()
	en.tlbTags, en.tlbShift, en.tlbMask, en.tlbWays = opts.Machine.TLB.MRUView()
	en.l1dTags, en.l1dShift, en.l1dMask, en.l1dWays = opts.Machine.L1D.MRUView()
	en.lineMask = opts.Machine.L1D.LineSize() - 1
	if opts.Profile {
		en.profile = make([]uint64, len(m.Funcs))
	}
	if opts.Observer != nil {
		en.obs = opts.Observer
		en.obsLast = opts.Machine.Snapshot()
	}
	if !en.replaying {
		en.globals = make([][]uint64, len(m.Globals))
		for i, g := range m.Globals {
			words := make([]uint64, g.Size/8)
			for j, v := range g.Init {
				if j < len(words) {
					words[j] = uint64(v)
				}
			}
			en.globals[i] = words
		}
	}
	en.sp = opts.Runtime.StackBase()
	en.stackLow = en.sp - mem.Addr(opts.StackLimit)
	// Pre-bind the stack-snapshot closure Tick receives, so block dispatch
	// does not allocate a method value per block as the walk engine does.
	// (Method-value allocation is host-side only; Tick sees the same data.)
	en.tickStack = func() []mem.Addr {
		out := make([]mem.Addr, len(en.callStack))
		for i, c := range en.callStack {
			out[i] = c.retPC
		}
		return out
	}

	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(runError); ok {
				err = e.err
				if en.rec != nil {
					if tr := trap.AsTrap(err); tr != nil {
						en.rec.observe(en.steps, EvTrap, uint64(tr.Kind), 0)
					}
				}
				return
			}
			if _, ok := r.(runtime.Error); ok && en.replaying {
				// A replay that reads past the operands its trace holds.
				err = errTraceOverrun
				return
			}
			panic(r)
		}
	}()

	entry := m.Entry()
	ret, exc := en.call(entry, nil, nil, 0, 0)
	if en.replaying {
		// The recorded run returned normally, so a replay that fits its
		// trace does too, having read all of it.
		if exc != nil {
			return Result{}, errTraceMismatch
		}
		if err := en.rd.finish(); err != nil {
			return Result{}, err
		}
		en.output = en.rd.t.output
	}
	if exc != nil {
		if en.rec != nil {
			en.rec.observe(en.steps, EvExit, 1, *exc)
		}
		return Result{}, &UncaughtError{Value: *exc}
	}
	if en.rec != nil {
		en.rec.observe(en.steps, EvExit, 0, ret)
	}
	if en.tw != nil {
		en.tw.seal(en.output)
	}

	return Result{
		Output:       en.output,
		Cycles:       en.mach.Cycles,
		Instructions: en.mach.Instructions,
		Seconds:      en.mach.Seconds(),
		Profile:      en.profile,
	}, nil
}

func (en *cvm) fail(err error) { panic(runError{err}) }

func (en *cvm) failf(format string, args ...any) {
	en.fail(fmt.Errorf("interp: "+format, args...))
}

func (en *cvm) curFnName() string {
	if n := len(en.callStack); n > 0 {
		return en.m.Funcs[en.callStack[n-1].fn].Name
	}
	return ""
}

func (en *cvm) trap(kind trap.Kind, format string, args ...any) {
	tr := trap.New(kind, format, args...)
	tr.Step = en.steps
	tr.Fn = en.curFnName()
	en.fail(tr)
}

func (en *cvm) runtimeErr(err error) {
	if tr := trap.AsTrap(err); tr != nil {
		tr.Step = en.steps
		tr.Fn = en.curFnName()
	}
	en.fail(err)
}

func (en *cvm) obsFlush() {
	if en.obs == nil {
		return
	}
	cur := en.mach.Snapshot()
	delta := cur.Sub(en.obsLast)
	en.obsLast = cur
	en.obsStack = en.obsStack[:0]
	for _, c := range en.callStack {
		en.obsStack = append(en.obsStack, c.fn)
	}
	en.obs.ProfileWindow(en.obsStack, delta)
}

// frame returns the reusable frame for the given recursion depth. Frames
// are heap-allocated once and pointer-stable.
func (en *cvm) frame(depth int) *cframe {
	for len(en.frames) <= depth {
		en.frames = append(en.frames, &cframe{})
	}
	return en.frames[depth]
}

// globalAddr resolves a global's address, charging the relocation-table
// indirection exactly as the walk engine's globalAccess does. It is small
// enough to inline, so an access from a function without a relocation table
// costs no call.
func (en *cvm) globalAddr(fr *cframe, g int) mem.Addr {
	if fr.fl.Reloc != 0 {
		en.relocLoad(fr.fl, len(en.lay.Funcs)+g)
	}
	return en.lay.Globals[g]
}

// relocLoad charges the relocation-table load, one extra retired load
// (§3.3), of the access fl's function makes to symbol sym (a callee, or
// len(Funcs)+g for global g). It reports false, having charged nothing, if
// the access is direct.
func (en *cvm) relocLoad(fl *FuncLayout, sym int) bool {
	slot, ok := fl.slot(sym)
	if !ok {
		return false
	}
	if !en.fastData8(slot) {
		en.mach.Data8Miss(slot)
	}
	en.mach.Retire(1)
	return true
}

// epochFor returns the layout-epoch precomputation for one activation's
// (codeBase, blockOffs) snapshot, building it on first sight.
func (en *cvm) epochFor(lf *lowFunc, codeBase mem.Addr, blockOffs []uint64) *fnEpoch {
	var op *uint64
	if len(blockOffs) > 0 {
		op = &blockOffs[0]
	}
	if h := &en.epochHot[lf.fn]; h.ep != nil && h.codeBase == codeBase && h.offs == op {
		return h.ep
	}
	ep := &fnEpoch{blocks: make([]epochBlock, len(lf.blocks))}
	for bi := range lf.blocks {
		b := &lf.blocks[bi]
		off := b.off
		if blockOffs != nil {
			off = blockOffs[bi]
		}
		pc := codeBase + mem.Addr(off)
		start := int32(len(ep.lines))
		ep.lines = en.mach.PrepareFetch(pc, b.size, ep.lines)
		ep.blocks[bi] = epochBlock{
			pc:       pc,
			termPC:   pc + mem.Addr(b.size) - mem.Addr(b.term.encSize),
			fetchOff: start,
			fetchEnd: int32(len(ep.lines)),
			tlbGen:   ^uint64(0),
			l1iGen:   ^uint64(0),
		}
	}
	en.epochHot[lf.fn] = epochHot{codeBase: codeBase, offs: op, ep: ep}
	return ep
}

// call transfers control to function fn. It mirrors the walk engine's
// call() exactly: same check order, same machine charges, same RAS and
// observer behaviour. Arguments are copied directly from the caller's
// registers (argRegs indexes caller.regs); the entry call passes nil.
func (en *cvm) call(fn int, caller *cframe, argRegs []int32, callerPC mem.Addr, depth int) (uint64, *uint64) {
	lf := en.lm.funcs[fn]
	f := lf.f
	if len(argRegs) != f.Params {
		en.failf("call to %s with %d args, want %d", f.Name, len(argRegs), f.Params)
	}

	en.callStack = append(en.callStack, callRecord{fn: fn, retPC: callerPC})

	pad := en.rt.BeforeCall(fn)
	fl := &en.lay.Funcs[fn]
	codeBase := fl.Code

	frameTop := en.sp - mem.Addr(pad)
	frameBase := frameTop - mem.Addr(f.FrameSize)
	if frameBase < en.stackLow {
		en.fail(ErrStackOverflow)
	}
	savedSP := en.sp
	en.sp = frameBase

	mach := en.mach
	if !en.fastData8(frameTop - 8) {
		mach.Data8Miss(frameTop - 8)
	}
	mach.Retire(1)

	if en.rasLen == rasDepth {
		copy(en.ras[:], en.ras[1:])
		en.rasLen--
	}
	en.ras[en.rasLen] = callerPC
	en.rasLen++

	fr := en.frame(depth)
	mark := en.arena.mark()
	fr.fn = fn
	fr.lf = lf
	if en.replaying {
		fr.rbs = en.rbs[fn]
	} else {
		fr.regs = en.arena.alloc(lf.numRegs)
		if caller != nil {
			cregs := caller.regs
			for i, a := range argRegs {
				fr.regs[i] = cregs[a]
			}
		}
		fr.stack = en.arena.alloc(lf.stackWords)
	}
	fr.frameBase = frameBase
	fr.fl = fl
	fr.ep = en.epochFor(lf, codeBase, fl.Blocks)

	ret, exc := en.exec(fr, depth)
	if exc != nil {
		if !en.fastData8(frameTop - 8) {
			mach.Data8Miss(frameTop - 8)
		}
		mach.Stall(unwindCost)
		if en.rasLen > 0 {
			en.rasLen--
		}
		en.obsFlush()
		en.callStack = en.callStack[:len(en.callStack)-1]
		en.sp = savedSP
		en.arena.release(mark)
		return 0, exc
	}

	if !en.fastData8(frameTop - 8) {
		mach.Data8Miss(frameTop - 8)
	}
	mach.Retire(1)
	if n := en.rasLen; n > 0 && en.ras[n-1] == callerPC {
		en.rasLen = n - 1
	} else {
		mach.Stall(mach.Costs.Mispredict)
		if n > 0 {
			en.rasLen = n - 1
		}
	}
	// The function's current copy, which a re-randomization during the
	// call may have moved, decides the return sequence.
	if callerPC != 0 && !mem.Below4G(fl.Code) {
		mach.Stall(mach.Costs.SlowJump)
	}

	en.obsFlush()
	en.callStack = en.callStack[:len(en.callStack)-1]
	en.sp = savedSP
	en.arena.release(mark)
	return ret, nil
}

// short reports whether a recording or a replay may lack room for k
// operands and a branch direction: the block's, or its rest's after a
// call. reserve makes the room.
func (en *cvm) short(k int) bool {
	if en.replaying {
		return en.rd.short(k)
	}
	return en.w.short(k)
}

func (en *cvm) reserve(k int) {
	if en.replaying {
		en.need(k)
	} else {
		en.w.reserve(k)
	}
}

// stopCheck is the slow path behind exec's single per-block stop
// comparison. stopAt is the earliest step at which either the budget check
// or the interrupt poll could fire, so folding both into one compare
// changes no behaviour: when the compare trips, this replays the exact
// walk-engine conditions and re-arms stopAt for the next trigger.
func (en *cvm) stopCheck() {
	if en.steps > en.maxSteps {
		en.fail(&StepBudgetError{Steps: en.steps, Budget: en.maxSteps})
	}
	if en.interrupt != nil && en.steps >= en.nextPoll {
		en.nextPoll = en.steps + interruptStride
		if err := en.interrupt(); err != nil {
			en.fail(err)
		}
	}
	en.rearmStop()
}

// rearmStop recomputes stopAt as the earliest step count that requires the
// slow path: one past the budget (steps > maxSteps fails), or the next
// interrupt poll, whichever comes first.
func (en *cvm) rearmStop() {
	s := en.maxSteps + 1
	if s == 0 { // maxSteps == MaxUint64: the budget can never trip
		s = en.maxSteps
	}
	if en.interrupt != nil && en.nextPoll < s {
		s = en.nextPoll
	}
	en.stopAt = s
}

// exec drives one activation through its lowered blocks. Each iteration
// mirrors one of walk exec()'s block rounds: fetch, tick, budget, poll,
// retire, straight-line ops, control segments, attribution flushes,
// terminator. A replay runs the same rounds, with each segment's memory
// events in place of its ops and the trace's branch directions; it keeps no
// registers.
func (en *cvm) exec(fr *cframe, depth int) (uint64, *uint64) {
	lf := fr.lf
	mach := en.mach
	replay := en.replaying
	bi := 0
	for {
		if en.profile != nil {
			fr.blockStart = mach.Cycles
		}
		b := &lf.blocks[bi]
		eb := &fr.ep.blocks[bi]
		if eb.tlbGen == mach.TLB.Gen && eb.l1iGen == mach.L1I.Gen {
			// No tag in either cache has moved since this block last
			// verified as all-MRU-resident: same transitions, bulk-charged.
			n := uint64(eb.fetchEnd - eb.fetchOff)
			mach.TLB.Hits += n
			mach.L1I.Hits += n
		} else {
			lines := fr.ep.lines[eb.fetchOff:eb.fetchEnd]
			if mach.FetchSteady(lines) {
				eb.tlbGen, eb.l1iGen = mach.TLB.Gen, mach.L1I.Gen
			} else {
				mach.FetchPre(lines)
			}
		}
		if mach.Cycles >= en.lay.TickAt {
			en.rt.Tick(en.tickStack)
		}

		en.steps += b.live + 1
		if en.steps >= en.stopAt {
			en.stopCheck()
		}
		mach.Retire(b.live)
		if en.traced && en.short(b.operands) {
			en.reserve(b.operands)
		}

		jumped := false
		if b.plain != nil {
			// Single straight-line segment (the common block shape): run the
			// ops without the segment scaffolding or the control switch.
			if replay {
				en.replayOps(fr, fr.rbs[bi].segs[0])
			} else {
				en.runOps(fr, b.plain)
			}
		} else {
			for si := range b.segs {
				sg := &b.segs[si]
				if replay {
					en.replayOps(fr, fr.rbs[bi].segs[si])
				} else {
					en.runOps(fr, sg.ops)
				}
				switch sg.kind {
				case segPlain:
				case segThrow:
					if replay {
						return 0, &en.excReplay
					}
					v := fr.regs[sg.throw]
					if en.rec != nil {
						en.rec.record(en.steps, EvThrow, 0, 0, v)
					}
					return 0, &v
				case segCall:
					lc := &sg.call
					if en.rec != nil {
						en.rec.record(en.steps, EvCall, uint64(lc.callee), 0, 0)
					}
					callPC := eb.pc + lc.pcOff
					if fr.fl.Reloc != 0 && en.relocLoad(fr.fl, lc.callee) {
						mach.IndirectBranch(callPC, en.lay.Funcs[lc.callee].Code)
					}
					if en.profile != nil {
						en.profile[fr.fn] += mach.Cycles - fr.blockStart
					}
					en.obsFlush()
					v, exc := en.call(lc.callee, fr, lc.args, callPC, depth+1)
					if en.profile != nil {
						fr.blockStart = mach.Cycles
					}
					if en.traced && en.short(b.operands) {
						// The callee's blocks used the staging room.
						en.reserve(b.operands)
					}
					if exc != nil {
						if lc.handler >= 0 {
							if lc.dst >= 0 && !replay {
								fr.regs[lc.dst] = *exc
							}
							bi = int(lc.handler)
							jumped = true
						} else {
							return 0, exc
						}
					} else if lc.dst >= 0 && !replay {
						fr.regs[lc.dst] = v
					}
				}
				if jumped {
					break
				}
			}
		}

		if en.profile != nil {
			en.profile[fr.fn] += mach.Cycles - fr.blockStart
		}
		if en.obs != nil {
			en.obsFlush()
		}
		if jumped {
			continue
		}
		t := &b.term
		switch t.kind {
		case ir.TermJmp:
			bi = int(t.then)
		case ir.TermBr:
			var taken bool
			if replay {
				taken = en.branchTaken()
			} else if t.fused != ir.OpNop {
				// Compare+branch superinstruction: evaluate the folded
				// comparison here. Register writes are invisible to the
				// machine and the recorder, and the compares charge no
				// machine cost, so deferring past the block's obsFlush is
				// observation-equivalent to the walk engine's in-block
				// evaluation.
				r := fr.regs
				var c uint64
				switch t.fused {
				case ir.OpCmpEQ:
					c = b2u(int64(r[t.cmpA]) == int64(r[t.cmpB]))
				case ir.OpCmpLT:
					c = b2u(int64(r[t.cmpA]) < int64(r[t.cmpB]))
				case ir.OpCmpLE:
					c = b2u(int64(r[t.cmpA]) <= int64(r[t.cmpB]))
				case ir.OpFCmpLT:
					c = b2u(f2(r[t.cmpA]) < f2(r[t.cmpB]))
				}
				r[t.cmpDst] = c
				taken = c != 0
			} else {
				taken = fr.regs[t.cond] != 0
			}
			if en.tw != nil {
				en.tw.branch(taken)
			}
			// CondBranch, open-coded so the predictor update inlines into
			// the dispatch loop (the wrapper is over the inline budget).
			if mach.BP.Conditional(eb.termPC, taken) {
				mach.Cycles += mach.Costs.Mispredict
			}
			mach.Retire(1)
			if taken {
				bi = int(t.then)
			} else {
				bi = int(t.els)
			}
		case ir.TermRet:
			mach.Retire(1)
			if t.val < 0 || replay {
				return 0, nil
			}
			return fr.regs[t.val], nil
		default:
			en.failf("%s: unterminated block %d", lf.f.Name, bi)
		}
	}
}

// alloc mirrors the walk engine's alloc exactly (same trap order, same
// recorder event, same handle recycling).
func (en *cvm) alloc(size uint64) uint64 {
	if size == 0 {
		size = 8
	}
	size = (size + 7) &^ 7
	addr, err := en.rt.Alloc(size)
	if err != nil {
		en.runtimeErr(err)
	}
	obj := heapObject{addr: addr, size: size, live: true}
	if !en.replaying {
		obj.data = make([]uint64, size/8)
	}
	var handle int
	if n := len(en.freeObj); n > 0 {
		handle = en.freeObj[n-1]
		en.freeObj = en.freeObj[:n-1]
		en.objects[handle] = obj
	} else {
		handle = len(en.objects)
		en.objects = append(en.objects, obj)
	}
	if handle >= 1<<30 {
		en.trap(trap.OutOfMemory, "too many heap objects")
	}
	if en.rec != nil {
		en.rec.record(en.steps, EvAlloc, uint64(handle), 0, size)
	}
	return ptrTag | uint64(handle)<<ptrHandleSh
}

// free mirrors the walk engine's free exactly.
func (en *cvm) free(ptr uint64) {
	if !IsPointer(ptr) {
		en.trap(trap.InvalidFree, "free of non-pointer value %#x", ptr)
	}
	if ptr&ptrOffMask != 0 {
		en.trap(trap.InvalidFree, "free of interior pointer (offset %d)", ptr&ptrOffMask)
	}
	handle := int((ptr &^ ptrTag) >> ptrHandleSh)
	if handle >= len(en.objects) {
		en.trap(trap.InvalidFree, "free of invalid handle %d", handle)
	}
	if !en.objects[handle].live {
		en.trap(trap.DoubleFree, "double free (handle %d)", handle)
	}
	if en.tw != nil {
		en.tw.put(opFreeHandle, int64(handle))
	}
	en.release(handle)
}

// release returns a checked, live heap object to the runtime.
func (en *cvm) release(handle int) {
	obj := &en.objects[handle]
	if err := en.rt.Free(obj.addr); err != nil {
		en.runtimeErr(err)
	}
	if en.rec != nil {
		en.rec.record(en.steps, EvFree, uint64(handle), 0, 0)
	}
	obj.live = false
	obj.data = nil
	en.freeObj = append(en.freeObj, handle)
}

// fastData8 is machine.Data8's MRU-resident fast path, open-coded from the
// MRUView geometry so it inlines into the dispatch loop (Data8 itself is
// over the compiler's inlining budget). For a non-straddling 8-byte access
// whose line sits in the MRU way of both the TLB and the L1D, the access's
// entire effect is one hit-counter increment on each — charged here. Any
// other outcome returns false having changed nothing, and the caller takes
// mach.Data8Miss, which does not probe again.
func (en *cvm) fastData8(a mem.Addr) bool {
	if uint64(a)&en.lineMask > en.lineMask-7 {
		return false
	}
	tl := uint64(a) >> en.tlbShift
	dl := uint64(a) >> en.l1dShift
	if en.tlbTags[(tl&en.tlbMask)*en.tlbWays] == tl|1<<63 &&
		en.l1dTags[(dl&en.l1dMask)*en.l1dWays] == dl|1<<63 {
		en.mach.TLB.Hits++
		en.mach.L1D.Hits++
		return true
	}
	return false
}

// runOps executes one straight-line run of lowered instructions. Each case
// mirrors the walk engine's switch arm for the same IR op — identical
// machine charges in the same order, identical recorder events, identical
// trap kinds and messages. After the primary op, a fused secondary in op2
// (always a register ALU op or a store; see fuseOps) executes from the
// d2/a2/b2 operand set, preserving original program order exactly.
func (en *cvm) runOps(fr *cframe, code []cinstr) {
	mach := en.mach
	r := fr.regs
	for i := range code {
		in := &code[i]
		switch in.op {
		case copConstI:
			r[in.d] = in.x
		case copMov:
			r[in.d] = r[in.a]
		case copAdd:
			r[in.d] = uint64(int64(r[in.a]) + int64(r[in.b]))
		case copSub:
			r[in.d] = uint64(int64(r[in.a]) - int64(r[in.b]))
		case copMul:
			mach.Stall(2)
			r[in.d] = uint64(int64(r[in.a]) * int64(r[in.b]))
		case copDiv:
			mach.Stall(20)
			r[in.d] = uint64(safeDiv(int64(r[in.a]), int64(r[in.b])))
		case copRem:
			mach.Stall(20)
			r[in.d] = uint64(safeRem(int64(r[in.a]), int64(r[in.b])))
		case copAnd:
			r[in.d] = r[in.a] & r[in.b]
		case copOr:
			r[in.d] = r[in.a] | r[in.b]
		case copXor:
			r[in.d] = r[in.a] ^ r[in.b]
		case copShl:
			r[in.d] = r[in.a] << (r[in.b] & 63)
		case copShr:
			r[in.d] = r[in.a] >> (r[in.b] & 63)
		case copFAdd:
			r[in.d] = fbits(f2(r[in.a]) + f2(r[in.b]))
		case copFSub:
			r[in.d] = fbits(f2(r[in.a]) - f2(r[in.b]))
		case copFMul:
			mach.Stall(2)
			r[in.d] = fbits(f2(r[in.a]) * f2(r[in.b]))
		case copFDiv:
			mach.Stall(12)
			r[in.d] = fbits(safeFDiv(f2(r[in.a]), f2(r[in.b])))
		case copCmpEQ:
			r[in.d] = b2u(int64(r[in.a]) == int64(r[in.b]))
		case copCmpLT:
			r[in.d] = b2u(int64(r[in.a]) < int64(r[in.b]))
		case copCmpLE:
			r[in.d] = b2u(int64(r[in.a]) <= int64(r[in.b]))
		case copFCmpLT:
			r[in.d] = b2u(f2(r[in.a]) < f2(r[in.b]))
		case copI2F:
			mach.Stall(3)
			r[in.d] = fbits(float64(int64(r[in.a])))
		case copF2I:
			mach.Stall(3)
			r[in.d] = uint64(safeF2I(f2(r[in.a])))

		case copLoadG, copLoadGF:
			g := int(in.a)
			addr := en.globalAddr(fr, g) + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op == copLoadGF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			r[in.d] = en.globals[g][in.x>>3]
		case copStoreG, copStoreGF:
			g := int(in.a)
			addr := en.globalAddr(fr, g) + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op == copStoreGF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			v := r[in.b]
			if en.rec != nil {
				en.rec.record(en.steps, EvStoreGlobal, uint64(g), in.x, v)
			}
			en.globals[g][in.x>>3] = v
		case copLoadGD, copLoadGFD, copStoreGD, copStoreGFD:
			g := int(in.b2)
			byteOff := in.imm + int64(r[in.a])*8
			ubo := uint64(byteOff)
			if ubo >= uint64(in.x)*8 || ubo&7 != 0 {
				en.trap(trap.OutOfBounds, "global %s access at byte %d outside %d bytes",
					en.m.Globals[g].Name, byteOff, int64(in.x)*8)
			}
			if en.tw != nil {
				en.tw.put(opGlobalOff, byteOff)
			}
			w := ubo >> 3
			addr := en.globalAddr(fr, g) + mem.Addr(byteOff)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if (in.op == copLoadGFD || in.op == copStoreGFD) && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			if in.op == copStoreGD || in.op == copStoreGFD {
				v := r[in.b]
				if en.rec != nil {
					en.rec.record(en.steps, EvStoreGlobal, uint64(g), uint64(byteOff), v)
				}
				en.globals[g][w] = v
			} else {
				r[in.d] = en.globals[g][w]
			}

		case copLoadS:
			addr := fr.frameBase + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			r[in.d] = fr.stack[in.x>>3]
		case copLoadSF:
			addr := fr.frameBase + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			r[in.d] = fr.stack[in.x>>3]
		case copStoreS, copStoreSF:
			addr := fr.frameBase + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op == copStoreSF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			v := r[in.b]
			if en.rec != nil {
				en.rec.record(en.steps, EvStoreStack,
					uint64(fr.fn)<<32|uint64(in.a), uint64(in.imm), v)
			}
			fr.stack[in.x>>3] = v
		case copLoadSD, copLoadSFD, copStoreSD, copStoreSFD:
			lfp := fr.lf
			slotOff, slotSize := lfp.pool[in.x], lfp.pool[in.x+1]
			byteOff := in.imm + int64(r[in.a])*8
			ubo := uint64(byteOff)
			if ubo >= slotSize || ubo&7 != 0 {
				slot := lfp.f.Slots[in.b2]
				en.trap(trap.OutOfBounds, "%s: stack slot %s access at byte %d outside %d bytes",
					lfp.f.Name, slot.Name, byteOff, slotSize)
			}
			if en.tw != nil {
				en.tw.put(opStackOff, byteOff)
			}
			addr := fr.frameBase + mem.Addr(slotOff) + mem.Addr(byteOff)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if (in.op == copLoadSFD || in.op == copStoreSFD) && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			w := (slotOff + ubo) >> 3
			if in.op == copStoreSD || in.op == copStoreSFD {
				v := r[in.b]
				if en.rec != nil {
					en.rec.record(en.steps, EvStoreStack,
						uint64(fr.fn)<<32|uint64(in.b2), uint64(byteOff), v)
				}
				fr.stack[w] = v
			} else {
				r[in.d] = fr.stack[w]
			}

		case copLoadH, copLoadHF:
			ptr := r[in.a]
			if ptr&ptrTag == 0 {
				en.trap(trap.InvalidPointer, "heap access through non-pointer value %#x", ptr)
			}
			var idx int64
			if in.b >= 0 {
				idx = int64(r[in.b])
			}
			handle := int((ptr &^ ptrTag) >> ptrHandleSh)
			byteOff := int64(ptr&ptrOffMask) + in.imm + idx*8
			if handle >= len(en.objects) {
				en.trap(trap.InvalidPointer, "heap access through invalid handle %d", handle)
			}
			obj := &en.objects[handle]
			if !obj.live {
				en.trap(trap.UseAfterFree, "heap use after free (handle %d)", handle)
			}
			// One unsigned compare covers the negative-offset case (it wraps
			// past any object size) and &7 is %8 for the in-bounds range.
			ubo := uint64(byteOff)
			if ubo >= obj.size || ubo&7 != 0 {
				en.trap(trap.OutOfBounds, "heap access at byte %d outside object of %d bytes", byteOff, obj.size)
			}
			if tw := en.tw; tw != nil {
				tw.put(opHeapHandle, int64(handle))
				tw.putDelta(byteOff - obj.traceOff)
				obj.traceOff = byteOff
			}
			w := ubo >> 3
			addr := obj.addr + mem.Addr(byteOff)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op == copLoadHF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			r[in.d] = obj.data[w]
		case copStoreH, copStoreHF:
			ptr := r[in.a]
			if ptr&ptrTag == 0 {
				en.trap(trap.InvalidPointer, "heap access through non-pointer value %#x", ptr)
			}
			var idx int64
			if in.b >= 0 {
				idx = int64(r[in.b])
			}
			handle := int((ptr &^ ptrTag) >> ptrHandleSh)
			byteOff := int64(ptr&ptrOffMask) + in.imm + idx*8
			if handle >= len(en.objects) {
				en.trap(trap.InvalidPointer, "heap access through invalid handle %d", handle)
			}
			obj := &en.objects[handle]
			if !obj.live {
				en.trap(trap.UseAfterFree, "heap use after free (handle %d)", handle)
			}
			// One unsigned compare covers the negative-offset case (it wraps
			// past any object size) and &7 is %8 for the in-bounds range.
			ubo := uint64(byteOff)
			if ubo >= obj.size || ubo&7 != 0 {
				en.trap(trap.OutOfBounds, "heap access at byte %d outside object of %d bytes", byteOff, obj.size)
			}
			if tw := en.tw; tw != nil {
				tw.put(opHeapHandle, int64(handle))
				tw.putDelta(byteOff - obj.traceOff)
				obj.traceOff = byteOff
			}
			w := ubo >> 3
			addr := obj.addr + mem.Addr(byteOff)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op == copStoreHF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			v := r[in.d] // the value register rides in Dst for heap stores
			if en.rec != nil {
				en.rec.record(en.steps, EvStoreHeap, uint64(handle), uint64(byteOff), v)
			}
			obj.data[w] = v

		case copAlloc:
			r[in.d] = en.alloc(in.x)
		case copFree:
			en.free(r[in.a])
		case copSink:
			v := r[in.a]
			if liveBaseVal(en.objects, v) {
				en.trap(trap.InvalidPointer,
					"%s sinks a heap pointer; output would be layout-dependent", fr.lf.f.Name)
			}
			if en.rec != nil {
				en.rec.observe(en.steps, EvSink, 0, v)
			}
			en.output = en.output*1099511628211 + v
		case copSinkF:
			v := r[in.a]
			if en.rec != nil {
				en.rec.observe(en.steps, EvSink, 0, v)
			}
			en.output = en.output*1099511628211 + v
		case copSlow:
			fr.lf.slow[in.x](en, fr)
		default:
			en.failf("compiled: bad opcode %d", in.op)
		}

		if in.op2 == copNone {
			continue
		}
		// Fused secondary: a register ALU op or store from the d2/a2/b2
		// operand set, executed right where the unfused op would have run.
		switch in.op2 {
		case copConstI:
			r[in.d2] = in.x
		case copMov:
			r[in.d2] = r[in.a2]
		case copAdd:
			r[in.d2] = uint64(int64(r[in.a2]) + int64(r[in.b2]))
		case copSub:
			r[in.d2] = uint64(int64(r[in.a2]) - int64(r[in.b2]))
		case copMul:
			mach.Stall(2)
			r[in.d2] = uint64(int64(r[in.a2]) * int64(r[in.b2]))
		case copDiv:
			mach.Stall(20)
			r[in.d2] = uint64(safeDiv(int64(r[in.a2]), int64(r[in.b2])))
		case copRem:
			mach.Stall(20)
			r[in.d2] = uint64(safeRem(int64(r[in.a2]), int64(r[in.b2])))
		case copAnd:
			r[in.d2] = r[in.a2] & r[in.b2]
		case copOr:
			r[in.d2] = r[in.a2] | r[in.b2]
		case copXor:
			r[in.d2] = r[in.a2] ^ r[in.b2]
		case copShl:
			r[in.d2] = r[in.a2] << (r[in.b2] & 63)
		case copShr:
			r[in.d2] = r[in.a2] >> (r[in.b2] & 63)
		case copFAdd:
			r[in.d2] = fbits(f2(r[in.a2]) + f2(r[in.b2]))
		case copFSub:
			r[in.d2] = fbits(f2(r[in.a2]) - f2(r[in.b2]))
		case copFMul:
			mach.Stall(2)
			r[in.d2] = fbits(f2(r[in.a2]) * f2(r[in.b2]))
		case copFDiv:
			mach.Stall(12)
			r[in.d2] = fbits(safeFDiv(f2(r[in.a2]), f2(r[in.b2])))
		case copCmpEQ:
			r[in.d2] = b2u(int64(r[in.a2]) == int64(r[in.b2]))
		case copCmpLT:
			r[in.d2] = b2u(int64(r[in.a2]) < int64(r[in.b2]))
		case copCmpLE:
			r[in.d2] = b2u(int64(r[in.a2]) <= int64(r[in.b2]))
		case copFCmpLT:
			r[in.d2] = b2u(f2(r[in.a2]) < f2(r[in.b2]))
		case copI2F:
			mach.Stall(3)
			r[in.d2] = fbits(float64(int64(r[in.a2])))
		case copF2I:
			mach.Stall(3)
			r[in.d2] = uint64(safeF2I(f2(r[in.a2])))

		case copLoadS, copLoadSF:
			addr := fr.frameBase + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op2 == copLoadSF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			r[in.d2] = fr.stack[in.x>>3]
		case copLoadG, copLoadGF:
			g := int(in.a2)
			addr := en.globalAddr(fr, g) + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op2 == copLoadGF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			r[in.d2] = en.globals[g][in.x>>3]
		case copLoadH, copLoadHF:
			ptr := r[in.a2]
			if ptr&ptrTag == 0 {
				en.trap(trap.InvalidPointer, "heap access through non-pointer value %#x", ptr)
			}
			var idx int64
			if in.b2 >= 0 {
				idx = int64(r[in.b2])
			}
			handle := int((ptr &^ ptrTag) >> ptrHandleSh)
			byteOff := int64(ptr&ptrOffMask) + in.imm + idx*8
			if handle >= len(en.objects) {
				en.trap(trap.InvalidPointer, "heap access through invalid handle %d", handle)
			}
			obj := &en.objects[handle]
			if !obj.live {
				en.trap(trap.UseAfterFree, "heap use after free (handle %d)", handle)
			}
			ubo := uint64(byteOff)
			if ubo >= obj.size || ubo&7 != 0 {
				en.trap(trap.OutOfBounds, "heap access at byte %d outside object of %d bytes", byteOff, obj.size)
			}
			if tw := en.tw; tw != nil {
				tw.put(opHeapHandle, int64(handle))
				tw.putDelta(byteOff - obj.traceOff)
				obj.traceOff = byteOff
			}
			addr := obj.addr + mem.Addr(byteOff)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op2 == copLoadHF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			r[in.d2] = obj.data[ubo>>3]
		case copSink:
			v := r[in.a2]
			if liveBaseVal(en.objects, v) {
				en.trap(trap.InvalidPointer,
					"%s sinks a heap pointer; output would be layout-dependent", fr.lf.f.Name)
			}
			if en.rec != nil {
				en.rec.observe(en.steps, EvSink, 0, v)
			}
			en.output = en.output*1099511628211 + v
		case copSinkF:
			v := r[in.a2]
			if en.rec != nil {
				en.rec.observe(en.steps, EvSink, 0, v)
			}
			en.output = en.output*1099511628211 + v
		case copFree:
			en.free(r[in.a2])
		case copStoreS, copStoreSF:
			addr := fr.frameBase + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op2 == copStoreSF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			v := r[in.d2]
			if en.rec != nil {
				en.rec.record(en.steps, EvStoreStack,
					uint64(fr.fn)<<32|uint64(in.a2), uint64(in.imm), v)
			}
			fr.stack[in.x>>3] = v
		case copStoreG, copStoreGF:
			g := int(in.a2)
			addr := en.globalAddr(fr, g) + mem.Addr(in.x)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op2 == copStoreGF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			v := r[in.d2]
			if en.rec != nil {
				en.rec.record(en.steps, EvStoreGlobal, uint64(g), in.x, v)
			}
			en.globals[g][in.x>>3] = v
		case copStoreH, copStoreHF:
			ptr := r[in.a2]
			if ptr&ptrTag == 0 {
				en.trap(trap.InvalidPointer, "heap access through non-pointer value %#x", ptr)
			}
			var idx int64
			if in.b2 >= 0 {
				idx = int64(r[in.b2])
			}
			handle := int((ptr &^ ptrTag) >> ptrHandleSh)
			byteOff := int64(ptr&ptrOffMask) + in.imm + idx*8
			if handle >= len(en.objects) {
				en.trap(trap.InvalidPointer, "heap access through invalid handle %d", handle)
			}
			obj := &en.objects[handle]
			if !obj.live {
				en.trap(trap.UseAfterFree, "heap use after free (handle %d)", handle)
			}
			// One unsigned compare covers the negative-offset case (it wraps
			// past any object size) and &7 is %8 for the in-bounds range.
			ubo := uint64(byteOff)
			if ubo >= obj.size || ubo&7 != 0 {
				en.trap(trap.OutOfBounds, "heap access at byte %d outside object of %d bytes", byteOff, obj.size)
			}
			if tw := en.tw; tw != nil {
				tw.put(opHeapHandle, int64(handle))
				tw.putDelta(byteOff - obj.traceOff)
				obj.traceOff = byteOff
			}
			w := ubo >> 3
			addr := obj.addr + mem.Addr(byteOff)
			if !en.fastData8(addr) {
				mach.Data8Miss(addr)
			}
			if in.op2 == copStoreHF && uint64(addr)%16 != 0 {
				mach.Stall(mach.Costs.UnalignedFP)
			}
			v := r[in.d2]
			if en.rec != nil {
				en.rec.record(en.steps, EvStoreHeap, uint64(handle), uint64(byteOff), v)
			}
			obj.data[w] = v
		}
	}
}
