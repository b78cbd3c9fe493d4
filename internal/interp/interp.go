// Package interp executes IR programs against the simulated machine.
//
// The interpreter is the meeting point of the reproduction: program
// semantics (which are layout-independent) come from the IR; performance
// (which is layout-dependent) comes from the addresses the active Runtime
// assigns to code, stack frames, and heap objects, fed through the machine
// model. Running the same program under different Runtimes — the native
// static layout versus the STABILIZER runtime — must produce identical
// Output but different Cycles.
package interp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trap"
)

// Runtime supplies runtime services to an executing program: the work done
// at each call (traps, relocation, stack padding), the heap, and timers.
// Where code and globals sit, and which relocation-table slots a function's
// calls and global accesses read, the engines do not ask for: they read the
// runtime's Layout, which the runtime keeps current by writing into it.
// Implementations decide whether layout is static (NativeRuntime) or
// randomized (the STABILIZER runtime in internal/core).
type Runtime interface {
	// Layout returns the run's layout table. The engines fetch it once, at
	// the start of a run, and read it from then on.
	Layout() *Layout
	// StackBase returns the address the stack grows down from.
	StackBase() mem.Addr
	// BeforeCall runs just before control transfers to fn. It may charge
	// runtime costs on the machine (traps, relocation, pad-table loads)
	// and returns the padding in bytes inserted below the caller's frame.
	BeforeCall(fn int) (pad uint64)
	// Alloc and Free implement the program's heap, charging their own
	// costs on the machine. Allocator misuse and exhaustion are reported
	// as *trap.TrapError values, which the interpreter stamps with the
	// retired-instruction index and surfaces as program faults.
	Alloc(size uint64) (mem.Addr, error)
	Free(addr mem.Addr) error
	// Tick runs at block boundaries so the runtime can react to the passage
	// of simulated time (re-randomization timers). It must have no effect
	// at a block that starts before Layout().TickAt: the walk engine calls
	// it at every block, the compiled engine only from that cycle on.
	// stack yields the return addresses currently on the simulated call
	// stack, for the code garbage collector; it stays valid for the run.
	Tick(stack func() []mem.Addr)
}

// Layout is the part of a runtime's state the engines read on every call,
// block and global access. The runtime updates it in place: it rewrites
// entries of Funcs and the TickAt field, and never replaces the Funcs or
// Globals slices, so a table fetched at the start of a run stays current.
type Layout struct {
	// Funcs[fn] is where function fn's current copy sits.
	Funcs []FuncLayout
	// Globals[g] is the address of global g.
	Globals []mem.Addr
	// TickAt is the first cycle at which Tick can have work (math.MaxUint64
	// for a runtime without timers). A runtime sets it before the run
	// starts and moves it only inside Tick.
	TickAt uint64
}

// FuncLayout is one function's entry in a Layout.
type FuncLayout struct {
	// Code is the address the function's current copy starts at.
	Code mem.Addr
	// Blocks holds per-block offsets (relative to Code) for the current
	// copy, or nil when blocks sit at their static offsets. A runtime
	// doing basic-block-granularity randomization (the paper's §8
	// extension) stores a fresh slice per copy and never writes into one
	// it has published: the engines snapshot Code and Blocks at activation
	// entry, so an activation keeps executing its own copy even if the
	// function is re-randomized while it sleeps on the stack.
	Blocks []uint64
	// Reloc is the address of the current copy's relocation table, or 0
	// when the function calls directly and addresses globals absolutely.
	Reloc mem.Addr
	// Slots gives, when Reloc is set, the byte offset in the table of the
	// slot a call to callee (Slots[callee]) or an access to global g
	// (Slots[len(Funcs)+g]) reads; -1 means that access bypasses the table.
	Slots []int32
}

// slot returns the relocation-table slot the function's access to symbol
// sym (a callee, or len(Funcs)+g for global g) reads, or ok=false if the
// access is direct.
func (f *FuncLayout) slot(sym int) (slot mem.Addr, ok bool) {
	if f.Reloc == 0 || f.Slots[sym] < 0 {
		return 0, false
	}
	return f.Reloc + mem.Addr(f.Slots[sym]), true
}

// Heap pointer encoding: bit 62 tags a value as a heap pointer; bits 61..32
// hold the object handle; bits 31..0 the byte offset.
const (
	ptrTag      = uint64(1) << 62
	ptrHandleSh = 32
	ptrOffMask  = (uint64(1) << 32) - 1
)

// IsPointer reports whether a raw register value is an encoded heap pointer.
func IsPointer(v uint64) bool { return v&ptrTag != 0 }

type heapObject struct {
	addr mem.Addr
	data []uint64
	size uint64
	live bool
	// traceOff is the byte offset of the last access a compiled run's
	// trace recorded or replayed on the object (see trace.go).
	traceOff int64
}

// Options configures one execution.
type Options struct {
	Machine *machine.Machine
	Runtime Runtime
	// MaxSteps bounds retired instructions (0 means the default of 1e9);
	// exceeding it aborts with a *StepBudgetError, catching runaway
	// programs.
	MaxSteps uint64
	// StackLimit bounds stack depth in bytes (default 8 MiB).
	StackLimit uint64
	// Profile enables per-function cycle attribution (Result.Profile).
	Profile bool
	// Interrupt, if non-nil, is polled every interruptStride retired
	// steps; a non-nil return aborts the run with that error. This is the
	// step-budget hook watchdogs use to stop a run whose context expired
	// without waiting for the (much larger) MaxSteps budget.
	Interrupt func() error
	// Record, if non-nil, accumulates the run's architectural digest (see
	// digest.go). A Recorder must not be reused across runs.
	Record *Recorder
	// Observer, if non-nil, receives windowed machine-counter deltas
	// attributed to the executing call stack. Windows close at every block
	// boundary and around calls, so each delta belongs to exactly one
	// function; summed over a run the deltas equal the machine's totals.
	// internal/obs.Profiler satisfies this.
	Observer Observer
	// Engine selects the execution strategy (default EngineCompiled). Both
	// engines produce identical results; EngineWalk is the differential
	// reference.
	Engine Engine
	// Capture, if non-nil, is an empty trace the run records its branch
	// directions and address operands into (NewTrace, or ClaimTrace for the
	// trace its module keeps); Replay, if non-nil, is a trace a run of the
	// same module recorded, which the run replays under its own layout
	// instead of computing values (see trace.go). A replay's
	// Result, machine counters and runtime calls equal a full run's. Only
	// the compiled engine records and replays, and only on runs without a
	// Recorder, Observer or Profile.
	Capture, Replay *Trace
}

// Observer receives per-window machine counter deltas during execution.
// stack holds function indices, outermost first; it is reused between
// calls and must not be retained.
type Observer interface {
	ProfileWindow(stack []int, delta machine.Counters)
}

// interruptStride is how many retired steps pass between Interrupt polls:
// frequent enough that a watchdog kills a pathological run promptly,
// sparse enough that the poll is invisible in the interpreter's profile.
const interruptStride = 16384

// Result reports one execution.
type Result struct {
	Output       uint64 // order-sensitive checksum of all Sink values
	Cycles       uint64
	Instructions uint64
	Seconds      float64
	// Profile holds per-function cycle attribution when Options.Profile is
	// set: Profile[fn] is the cycles spent executing fn's own blocks
	// (exclusive of callees).
	Profile []uint64
}

// interpreter is the per-run state.
type interp struct {
	m       *ir.Module
	mach    *machine.Machine
	rt      Runtime
	lay     *Layout
	opts    Options
	globals [][]uint64
	objects []heapObject
	freeObj []int // recycled handles

	sp        mem.Addr
	stackLow  mem.Addr
	output    uint64
	steps     uint64
	rec       *Recorder
	nextPoll  uint64 // step count at which Interrupt is polled next
	callStack []callRecord
	ras       []mem.Addr // modeled return-address stack (16 entries)
	profile   []uint64   // per-function exclusive cycles (nil unless profiling)
	obs       Observer
	obsLast   machine.Counters // counter state at the last observer flush
	obsStack  []int            // reusable stack buffer passed to the observer
}

// rasDepth is the modeled hardware return-address stack depth.
const rasDepth = 16

type callRecord struct {
	fn    int
	retPC mem.Addr
}

var (
	// ErrMaxSteps reports that the instruction budget was exhausted. Runs
	// actually fail with a *StepBudgetError, which matches this sentinel
	// through errors.Is while carrying the retired step count.
	ErrMaxSteps = errors.New("interp: instruction budget exhausted")
	// ErrStackOverflow reports simulated stack exhaustion.
	ErrStackOverflow = errors.New("interp: stack overflow")
)

// UncaughtError reports that an exception escaped main. It is a program
// outcome, not an infrastructure failure: the oracle treats it like a trap
// (the exit event is already folded into the digest) rather than aborting
// the differential matrix.
type UncaughtError struct {
	// Value is the exception value that escaped.
	Value uint64
}

func (e *UncaughtError) Error() string {
	return fmt.Sprintf("interp: uncaught exception with value %#x", e.Value)
}

// StepBudgetError is the structured form of ErrMaxSteps: it reports how
// many steps had retired and what the budget was when the run was cut
// off, so a pool worker's failure identifies the runaway cell precisely
// instead of surfacing a bare sentinel.
type StepBudgetError struct {
	// Steps is the retired instruction count when the budget fired.
	Steps uint64
	// Budget is the configured MaxSteps limit.
	Budget uint64
}

func (e *StepBudgetError) Error() string {
	return fmt.Sprintf("interp: instruction budget exhausted: %d steps retired (budget %d)", e.Steps, e.Budget)
}

// Is lets errors.Is(err, ErrMaxSteps) keep working for callers that only
// care that the budget fired.
func (e *StepBudgetError) Is(target error) bool { return target == ErrMaxSteps }

// Run executes module m under the given options and returns the result.
// The module must have been finalized and sized (ir.ComputeSizes). The
// execution strategy is chosen by Options.Engine; results are identical
// either way.
func Run(m *ir.Module, opts Options) (Result, error) {
	if opts.Machine == nil || opts.Runtime == nil {
		return Result{}, errors.New("interp: Machine and Runtime are required")
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1e9
	}
	if opts.StackLimit == 0 {
		opts.StackLimit = 8 << 20
	}
	for fi, f := range m.Funcs {
		if f.Size == 0 {
			return Result{}, fmt.Errorf("interp: function %d (%s) has no size; run ir.ComputeSizes", fi, f.Name)
		}
	}
	if opts.Capture != nil || opts.Replay != nil {
		switch {
		case opts.Capture != nil && opts.Replay != nil:
			return Result{}, errors.New("interp: a run cannot both record and replay a trace")
		case opts.Engine != EngineCompiled:
			return Result{}, fmt.Errorf("interp: the %s engine neither records nor replays traces", opts.Engine)
		case opts.Record != nil || opts.Observer != nil || opts.Profile:
			return Result{}, errors.New("interp: a run with a Recorder, Observer or Profile cannot record or replay a trace")
		}
	}
	if opts.Engine == EngineCompiled {
		return runCompiled(m, opts)
	}
	return runWalk(m, opts)
}

// runWalk executes via the tree-walk engine (the differential reference).
func runWalk(m *ir.Module, opts Options) (res Result, err error) {
	it := &interp{m: m, mach: opts.Machine, rt: opts.Runtime, lay: opts.Runtime.Layout(),
		opts: opts, rec: opts.Record}
	if opts.Profile {
		it.profile = make([]uint64, len(m.Funcs))
	}
	if opts.Observer != nil {
		it.obs = opts.Observer
		// The first window measures from here, not from machine zero, so a
		// reused machine doesn't leak pre-run counters into the profile.
		it.obsLast = opts.Machine.Snapshot()
	}
	it.globals = make([][]uint64, len(m.Globals))
	for i, g := range m.Globals {
		words := make([]uint64, g.Size/8)
		for j, v := range g.Init {
			if j < len(words) {
				words[j] = uint64(v)
			}
		}
		it.globals[i] = words
	}
	it.sp = opts.Runtime.StackBase()
	it.stackLow = it.sp - mem.Addr(opts.StackLimit)

	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(runError); ok {
				err = e.err
				// A program fault is architecturally observable: fold the
				// trap kind into the digest so fault-equivalence can be
				// asserted across the matrix.
				if it.rec != nil {
					if tr := trap.AsTrap(err); tr != nil {
						it.rec.observe(it.steps, EvTrap, uint64(tr.Kind), 0)
					}
				}
				return
			}
			panic(r)
		}
	}()

	entry := m.Entry()
	ret, exc := it.call(entry, nil, 0)
	if exc != nil {
		if it.rec != nil {
			it.rec.observe(it.steps, EvExit, 1, *exc)
		}
		return Result{}, &UncaughtError{Value: *exc}
	}
	if it.rec != nil {
		it.rec.observe(it.steps, EvExit, 0, ret)
	}

	return Result{
		Output:       it.output,
		Cycles:       it.mach.Cycles,
		Instructions: it.mach.Instructions,
		Seconds:      it.mach.Seconds(),
		Profile:      it.profile,
	}, nil
}

// runError carries an error through panic/recover so deep recursion can
// abort cleanly.
type runError struct{ err error }

func (it *interp) fail(err error) {
	panic(runError{err})
}

func (it *interp) failf(format string, args ...any) {
	it.fail(fmt.Errorf("interp: "+format, args...))
}

// curFnName names the currently executing function, for trap reports.
func (it *interp) curFnName() string {
	if n := len(it.callStack); n > 0 {
		return it.m.Funcs[it.callStack[n-1].fn].Name
	}
	return ""
}

// trap aborts the run with a typed program fault stamped with the current
// retired-instruction index — the layout-invariant coordinate the oracle's
// fault-equivalence check compares across the matrix.
func (it *interp) trap(kind trap.Kind, format string, args ...any) {
	tr := trap.New(kind, format, args...)
	tr.Step = it.steps
	tr.Fn = it.curFnName()
	it.fail(tr)
}

// runtimeErr surfaces an error returned by the Runtime's allocator: typed
// traps are stamped with the interpreter's coordinates and become program
// faults; anything else propagates as an infrastructure error.
func (it *interp) runtimeErr(err error) {
	if tr := trap.AsTrap(err); tr != nil {
		tr.Step = it.steps
		tr.Fn = it.curFnName()
	}
	it.fail(err)
}

// obsFlush closes the current observer window: the counter delta since the
// last flush is attributed to the current call stack. Callers place flushes
// so that every window's leaf is the function that did the work.
func (it *interp) obsFlush() {
	if it.obs == nil {
		return
	}
	cur := it.mach.Snapshot()
	delta := cur.Sub(it.obsLast)
	it.obsLast = cur
	it.obsStack = it.obsStack[:0]
	for _, c := range it.callStack {
		it.obsStack = append(it.obsStack, c.fn)
	}
	it.obs.ProfileWindow(it.obsStack, delta)
}

// returnAddrs snapshots the return addresses on the simulated stack, for the
// STABILIZER code garbage collector's stack walk.
func (it *interp) returnAddrs() []mem.Addr {
	out := make([]mem.Addr, len(it.callStack))
	for i, c := range it.callStack {
		out[i] = c.retPC
	}
	return out
}

// unwindCost is the modeled per-frame cost of exception unwinding (table
// lookup plus register restoration), charged on top of the frame's memory
// traffic.
const unwindCost = 60

// call transfers control to function fn with the given argument values and
// returns its result. callerPC is the simulated address of the call site
// (zero for the entry call). A non-nil second result is an in-flight
// exception unwinding through this frame.
func (it *interp) call(fn int, args []uint64, callerPC mem.Addr) (uint64, *uint64) {
	f := it.m.Funcs[fn]
	if len(args) != f.Params {
		it.failf("call to %s with %d args, want %d", f.Name, len(args), f.Params)
	}

	// The call record is pushed before BeforeCall so a runtime stack walk
	// during trap handling sees the caller's return address, exactly as the
	// hardware stack would at the time the trap fires (§3.3).
	it.callStack = append(it.callStack, callRecord{fn: fn, retPC: callerPC})

	pad := it.rt.BeforeCall(fn)
	codeBase := it.lay.Funcs[fn].Code
	blockOffs := it.lay.Funcs[fn].Blocks

	// Frame layout (Figure 4): padding below the caller's frame, then the
	// return address and frame pointer, then this frame's slots.
	frameTop := it.sp - mem.Addr(pad)
	frameBase := frameTop - mem.Addr(f.FrameSize)
	if frameBase < it.stackLow {
		it.fail(ErrStackOverflow)
	}
	savedSP := it.sp
	it.sp = frameBase

	// Push the return address (frame pointers are omitted, as optimizing
	// compilers do).
	it.mach.Data(frameTop-8, 8)
	it.mach.Retire(1)

	// Return-address stack: hardware predicts returns from a small LIFO;
	// overflow drops the oldest entry, which will mispredict on its return.
	if len(it.ras) == rasDepth {
		copy(it.ras, it.ras[1:])
		it.ras = it.ras[:rasDepth-1]
	}
	it.ras = append(it.ras, callerPC)

	regs := make([]uint64, f.NumRegs)
	copy(regs, args)
	stack := make([]uint64, (f.FrameSize-16)/8)

	ret, exc := it.exec(fn, f, codeBase, blockOffs, frameBase, regs, stack)
	if exc != nil {
		// Unwind: the runtime walks this frame's metadata and restores
		// state; the return address is read but not branched through.
		it.mach.Data(frameTop-8, 8)
		it.mach.Stall(unwindCost)
		if n := len(it.ras); n > 0 {
			it.ras = it.ras[:n-1]
		}
		// Unwind costs belong to the frame being unwound.
		it.obsFlush()
		it.callStack = it.callStack[:len(it.callStack)-1]
		it.sp = savedSP
		return 0, exc
	}

	// Pop: reload the return address and branch back.
	it.mach.Data(frameTop-8, 8)
	it.mach.Retire(1)
	// Returns predict through the RAS, not the BTB: correct unless the
	// entry was displaced by overflow.
	if n := len(it.ras); n > 0 && it.ras[n-1] == callerPC {
		it.ras = it.ras[:n-1]
	} else {
		it.mach.Stall(it.mach.Costs.Mispredict)
		if n > 0 {
			it.ras = it.ras[:n-1]
		}
	}
	if callerPC != 0 && !mem.Below4G(it.lay.Funcs[fn].Code) {
		// Returning out of high memory uses the slow jump sequence (§3.5).
		it.mach.Stall(it.mach.Costs.SlowJump)
	}

	// Frame pop costs close out the callee's last window; the caller's next
	// window starts clean after the pop.
	it.obsFlush()
	it.callStack = it.callStack[:len(it.callStack)-1]
	it.sp = savedSP
	return ret, nil
}

// exec runs the body of one activation.
func (it *interp) exec(fn int, f *ir.Function, codeBase mem.Addr, blockOffs []uint64, frameBase mem.Addr, regs, stack []uint64) (uint64, *uint64) {
	bi := 0
	var blockStart uint64
	for {
		if it.profile != nil {
			blockStart = it.mach.Cycles
		}
		b := f.Blocks[bi]
		off := b.Off
		if blockOffs != nil {
			off = blockOffs[bi]
		}
		blockPC := codeBase + mem.Addr(off)
		it.mach.Fetch(blockPC, b.Size)
		// The reference engine ticks at every block, whatever TickAt says,
		// so the differential suite holds the compiled engine's deadline
		// to it.
		it.rt.Tick(it.returnAddrs)

		n := b.Live
		it.steps += n + 1 // +1 for the terminator, so empty loops still hit the budget
		if it.steps > it.opts.MaxSteps {
			it.fail(&StepBudgetError{Steps: it.steps, Budget: it.opts.MaxSteps})
		}
		if it.opts.Interrupt != nil && it.steps >= it.nextPoll {
			it.nextPoll = it.steps + interruptStride
			if err := it.opts.Interrupt(); err != nil {
				it.fail(err)
			}
		}
		it.mach.Retire(n)

		jumped := false
	instrs:
		for idx := range b.Instrs {
			in := &b.Instrs[idx]
			switch in.Op {
			case ir.OpNop:
				// deleted instruction

			case ir.OpConstI, ir.OpConstF:
				regs[in.Dst] = uint64(in.Imm)
			case ir.OpMov:
				regs[in.Dst] = regs[in.A]

			case ir.OpAdd:
				regs[in.Dst] = uint64(int64(regs[in.A]) + int64(regs[in.B]))
			case ir.OpSub:
				regs[in.Dst] = uint64(int64(regs[in.A]) - int64(regs[in.B]))
			case ir.OpMul:
				it.mach.Stall(2)
				regs[in.Dst] = uint64(int64(regs[in.A]) * int64(regs[in.B]))
			case ir.OpDiv:
				it.mach.Stall(20)
				regs[in.Dst] = uint64(safeDiv(int64(regs[in.A]), int64(regs[in.B])))
			case ir.OpRem:
				it.mach.Stall(20)
				regs[in.Dst] = uint64(safeRem(int64(regs[in.A]), int64(regs[in.B])))
			case ir.OpAnd:
				regs[in.Dst] = regs[in.A] & regs[in.B]
			case ir.OpOr:
				regs[in.Dst] = regs[in.A] | regs[in.B]
			case ir.OpXor:
				regs[in.Dst] = regs[in.A] ^ regs[in.B]
			case ir.OpShl:
				regs[in.Dst] = regs[in.A] << (regs[in.B] & 63)
			case ir.OpShr:
				regs[in.Dst] = regs[in.A] >> (regs[in.B] & 63)

			case ir.OpFAdd:
				regs[in.Dst] = fbits(f2(regs[in.A]) + f2(regs[in.B]))
			case ir.OpFSub:
				regs[in.Dst] = fbits(f2(regs[in.A]) - f2(regs[in.B]))
			case ir.OpFMul:
				it.mach.Stall(2)
				regs[in.Dst] = fbits(f2(regs[in.A]) * f2(regs[in.B]))
			case ir.OpFDiv:
				it.mach.Stall(12)
				regs[in.Dst] = fbits(safeFDiv(f2(regs[in.A]), f2(regs[in.B])))

			case ir.OpCmpEQ:
				regs[in.Dst] = b2u(int64(regs[in.A]) == int64(regs[in.B]))
			case ir.OpCmpLT:
				regs[in.Dst] = b2u(int64(regs[in.A]) < int64(regs[in.B]))
			case ir.OpCmpLE:
				regs[in.Dst] = b2u(int64(regs[in.A]) <= int64(regs[in.B]))
			case ir.OpFCmpLT:
				regs[in.Dst] = b2u(f2(regs[in.A]) < f2(regs[in.B]))

			case ir.OpI2F:
				it.mach.Stall(3)
				regs[in.Dst] = fbits(float64(int64(regs[in.A])))
			case ir.OpF2I:
				it.mach.Stall(3)
				regs[in.Dst] = uint64(safeF2I(f2(regs[in.A])))

			case ir.OpLoadG, ir.OpLoadGF:
				regs[in.Dst] = it.globalAccess(fn, in, regs, false)
			case ir.OpStoreG, ir.OpStoreGF:
				it.globalAccess(fn, in, regs, true)

			case ir.OpLoadS, ir.OpLoadSF:
				regs[in.Dst] = it.stackAccess(fn, f, frameBase, in, regs, stack, false)
			case ir.OpStoreS, ir.OpStoreSF:
				it.stackAccess(fn, f, frameBase, in, regs, stack, true)

			case ir.OpLoadH, ir.OpLoadHF:
				regs[in.Dst] = it.heapAccess(fn, in, regs, false)
			case ir.OpStoreH, ir.OpStoreHF:
				it.heapAccess(fn, in, regs, true)

			case ir.OpAlloc:
				regs[in.Dst] = it.alloc(uint64(in.Imm))
			case ir.OpFree:
				it.free(regs[in.A])

			case ir.OpCall:
				callee := int(in.Sym)
				if it.rec != nil {
					it.rec.record(it.steps, EvCall, uint64(callee), 0, 0)
				}
				// Distinguish call sites within a block: the BTB and the
				// return-address records key on the site address.
				callPC := blockPC + mem.Addr(idx)*5
				if slot, ok := it.lay.Funcs[fn].slot(callee); ok {
					// Indirect call through the relocation table: one extra
					// load instruction, then an indirect transfer predicted
					// by the BTB.
					it.mach.Data(slot, 8)
					it.mach.Retire(1)
					it.mach.IndirectBranch(callPC, it.lay.Funcs[callee].Code)
				}
				args := make([]uint64, len(in.Args))
				for ai, a := range in.Args {
					args[ai] = regs[a]
				}
				if it.profile != nil {
					// Close this block's attribution window before the
					// callee runs, and reopen it after, so callee cycles
					// are not double-counted against the caller.
					it.profile[fn] += it.mach.Cycles - blockStart
				}
				// Close the observer window at the call site too: the call
				// setup so far (relocation load, argument staging) belongs
				// to the caller; everything from here until the callee's
				// first flush belongs to the callee.
				it.obsFlush()
				v, exc := it.call(callee, args, callPC)
				if it.profile != nil {
					blockStart = it.mach.Cycles
				}
				if exc != nil {
					if in.Imm != 0 {
						// Invoke: land in the handler with the exception
						// value in the result register.
						if in.Dst != ir.NoReg {
							regs[in.Dst] = *exc
						}
						bi = int(in.Imm) - 1
						jumped = true
						break instrs
					}
					return 0, exc // propagate
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = v
				}

			case ir.OpThrow:
				v := regs[in.A]
				if it.rec != nil {
					it.rec.record(it.steps, EvThrow, 0, 0, v)
				}
				return 0, &v

			case ir.OpSink:
				v := regs[in.A]
				if liveBaseVal(it.objects, v) {
					it.trap(trap.InvalidPointer,
						"%s sinks a heap pointer; output would be layout-dependent", f.Name)
				}
				if it.rec != nil {
					it.rec.observe(it.steps, EvSink, 0, v)
				}
				it.output = it.output*1099511628211 + v
			case ir.OpSinkF:
				if it.rec != nil {
					it.rec.observe(it.steps, EvSink, 0, regs[in.A])
				}
				it.output = it.output*1099511628211 + regs[in.A]

			default:
				it.failf("%s: unimplemented opcode %v", f.Name, in.Op)
			}
		}

		if it.profile != nil {
			// Exclusive attribution: callees account for themselves, so
			// subtract nothing — OpCall's nested exec already advanced the
			// clock under the callee's id; what remains here is this
			// block's own cost plus runtime services charged while it ran.
			it.profile[fn] += it.mach.Cycles - blockStart
		}
		it.obsFlush()
		if jumped {
			continue // control transferred to an exception handler
		}
		term := b.Term
		termPC := blockPC + mem.Addr(b.Size) - mem.Addr(term.EncodedSize())
		switch term.Kind {
		case ir.TermJmp:
			bi = term.Then
		case ir.TermBr:
			taken := regs[term.Cond] != 0
			it.mach.CondBranch(termPC, taken)
			it.mach.Retire(1)
			if taken {
				bi = term.Then
			} else {
				bi = term.Else
			}
		case ir.TermRet:
			it.mach.Retire(1)
			if term.Val == ir.NoReg {
				return 0, nil
			}
			return regs[term.Val], nil
		default:
			it.failf("%s: unterminated block %d", f.Name, bi)
		}
	}
}

// globalAccess performs a load or store on a global, charging the memory
// system (and the relocation-table indirection, if the runtime imposes one).
func (it *interp) globalAccess(fn int, in *ir.Instr, regs []uint64, store bool) uint64 {
	g := int(in.Sym)
	idx := int64(0)
	if in.A != ir.NoReg {
		idx = int64(regs[in.A])
	}
	byteOff := in.Imm + idx*8
	words := it.globals[g]
	w := byteOff / 8
	if byteOff < 0 || w >= int64(len(words)) || byteOff%8 != 0 {
		it.trap(trap.OutOfBounds, "global %s access at byte %d outside %d bytes",
			it.m.Globals[g].Name, byteOff, len(words)*8)
	}
	if slot, ok := it.lay.Funcs[fn].slot(len(it.lay.Funcs) + g); ok {
		// The table indirection is one extra load instruction (§3.3).
		it.mach.Data(slot, 8)
		it.mach.Retire(1)
	}
	addr := it.lay.Globals[g] + mem.Addr(byteOff)
	it.mach.Data(addr, 8)
	if in.Op.IsFloat() && uint64(addr)%16 != 0 {
		it.mach.Stall(it.mach.Costs.UnalignedFP)
	}
	if store {
		if it.rec != nil {
			it.rec.record(it.steps, EvStoreGlobal, uint64(g), uint64(byteOff), regs[in.B])
		}
		words[w] = regs[in.B]
		return 0
	}
	return words[w]
}

// stackAccess performs a load or store on the current frame.
func (it *interp) stackAccess(fn int, f *ir.Function, frameBase mem.Addr, in *ir.Instr, regs, stack []uint64, store bool) uint64 {
	slot := f.Slots[in.Sym]
	idx := int64(0)
	if in.A != ir.NoReg {
		idx = int64(regs[in.A])
	}
	byteOff := in.Imm + idx*8
	if byteOff < 0 || uint64(byteOff) >= slot.Size || byteOff%8 != 0 {
		it.trap(trap.OutOfBounds, "%s: stack slot %s access at byte %d outside %d bytes",
			f.Name, slot.Name, byteOff, slot.Size)
	}
	addr := frameBase + mem.Addr(slot.Off) + mem.Addr(byteOff)
	it.mach.Data(addr, 8)
	if in.Op.IsFloat() && uint64(addr)%16 != 0 {
		it.mach.Stall(it.mach.Costs.UnalignedFP)
	}
	w := (slot.Off + uint64(byteOff)) / 8
	if store {
		if it.rec != nil {
			// The slot symbol plus function index is a layout-invariant
			// coordinate; the frame address never enters the digest.
			it.rec.record(it.steps, EvStoreStack,
				uint64(fn)<<32|uint64(in.Sym), uint64(byteOff), regs[in.B])
		}
		stack[w] = regs[in.B]
		return 0
	}
	return stack[w]
}

// heapAccess performs a load or store through a heap pointer.
func (it *interp) heapAccess(fn int, in *ir.Instr, regs []uint64, store bool) uint64 {
	ptr := regs[in.A]
	if !IsPointer(ptr) {
		it.trap(trap.InvalidPointer, "heap access through non-pointer value %#x", ptr)
	}
	idx := int64(0)
	if in.B != ir.NoReg {
		idx = int64(regs[in.B])
	}
	handle := int((ptr &^ ptrTag) >> ptrHandleSh)
	baseOff := int64(ptr & ptrOffMask)
	byteOff := baseOff + in.Imm + idx*8
	if handle >= len(it.objects) {
		it.trap(trap.InvalidPointer, "heap access through invalid handle %d", handle)
	}
	obj := &it.objects[handle]
	if !obj.live {
		it.trap(trap.UseAfterFree, "heap use after free (handle %d)", handle)
	}
	w := byteOff / 8
	if byteOff < 0 || uint64(byteOff) >= obj.size || byteOff%8 != 0 {
		it.trap(trap.OutOfBounds, "heap access at byte %d outside object of %d bytes", byteOff, obj.size)
	}
	addr := obj.addr + mem.Addr(byteOff)
	it.mach.Data(addr, 8)
	if in.Op.IsFloat() && uint64(addr)%16 != 0 {
		it.mach.Stall(it.mach.Costs.UnalignedFP)
	}
	if store {
		if it.rec != nil {
			// Handles are assigned in allocation order and recycled LIFO,
			// so they are identical across layouts; the object's simulated
			// address never enters the digest.
			it.rec.record(it.steps, EvStoreHeap, uint64(handle), uint64(byteOff), regs[in.Dst])
		}
		obj.data[w] = regs[in.Dst] // value register rides in Dst for StoreH
		return 0
	}
	return obj.data[w]
}

// alloc creates a heap object via the runtime's allocator.
func (it *interp) alloc(size uint64) uint64 {
	if size == 0 {
		size = 8
	}
	size = (size + 7) &^ 7
	addr, err := it.rt.Alloc(size)
	if err != nil {
		it.runtimeErr(err)
	}
	var handle int
	if n := len(it.freeObj); n > 0 {
		handle = it.freeObj[n-1]
		it.freeObj = it.freeObj[:n-1]
		it.objects[handle] = heapObject{addr: addr, data: make([]uint64, size/8), size: size, live: true}
	} else {
		handle = len(it.objects)
		it.objects = append(it.objects, heapObject{addr: addr, data: make([]uint64, size/8), size: size, live: true})
	}
	if handle >= 1<<30 {
		it.trap(trap.OutOfMemory, "too many heap objects")
	}
	if it.rec != nil {
		it.rec.record(it.steps, EvAlloc, uint64(handle), 0, size)
	}
	return ptrTag | uint64(handle)<<ptrHandleSh
}

// free releases a heap object.
func (it *interp) free(ptr uint64) {
	if !IsPointer(ptr) {
		it.trap(trap.InvalidFree, "free of non-pointer value %#x", ptr)
	}
	if ptr&ptrOffMask != 0 {
		it.trap(trap.InvalidFree, "free of interior pointer (offset %d)", ptr&ptrOffMask)
	}
	handle := int((ptr &^ ptrTag) >> ptrHandleSh)
	if handle >= len(it.objects) {
		it.trap(trap.InvalidFree, "free of invalid handle %d", handle)
	}
	if !it.objects[handle].live {
		it.trap(trap.DoubleFree, "double free (handle %d)", handle)
	}
	obj := &it.objects[handle]
	if err := it.rt.Free(obj.addr); err != nil {
		it.runtimeErr(err)
	}
	if it.rec != nil {
		it.rec.record(it.steps, EvFree, uint64(handle), 0, 0)
	}
	obj.live = false
	obj.data = nil
	it.freeObj = append(it.freeObj, handle)
}

// liveBaseVal reports whether v is exactly the base encoding of a live heap
// object — the values Sink must reject as layout-dependent output. It is
// equivalent to membership in a set maintained across alloc/free: a live
// base pointer has the tag bit, a zero offset, and a live in-range handle;
// no other bit pattern was ever handed out by alloc. (Values with bit 63
// set decode to handles ≥ 2³¹, beyond the object-count trap threshold, so
// the range check rejects them.)
func liveBaseVal(objects []heapObject, v uint64) bool {
	if v&ptrTag == 0 || v&ptrOffMask != 0 {
		return false
	}
	h := (v &^ ptrTag) >> ptrHandleSh
	return h < uint64(len(objects)) && objects[h].live
}

func f2(v uint64) float64 { return math.Float64frombits(v) }
func fbits(v float64) uint64 {
	return math.Float64bits(v)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		return a
	}
	return a / b
}

func safeRem(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		return 0
	}
	return a % b
}

func safeFDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func safeF2I(f float64) int64 {
	if math.IsNaN(f) {
		return 0
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}
