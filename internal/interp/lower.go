// Lowering for the compiled execution engine.
//
// lowered() turns an *ir.Module into a flat, pre-decoded instruction stream:
// every IR instruction becomes one cinstr — a plain struct holding the
// opcode plus its operand registers, immediates, and, wherever the IR makes
// them static, byte offsets, word indices, and bounds-check outcomes
// resolved at lowering time. The compiled driver executes cinstrs through a
// single switch (compiled.go's runOps), so dispatch is a jump table instead
// of an indirect closure call per instruction.
//
// Before emission each function runs through two register-only passes:
//
//   - copy propagation: reads through a Mov are renamed to the Mov's source
//     while the copy relation provably holds (within one block, source not
//     yet redefined);
//   - dead-code elimination: charge-free register ops (constants, moves,
//     add/sub/logic/compares — anything with no machine cost, no trap, and
//     no recorder event) whose result is never read are dropped.
//
// Both passes are invisible to every observer the engines are pinned on:
// registers themselves are unobservable, the deleted ops charge no cycles
// and record no events, and steps/Retire accounting uses the original
// block's Live count, never the lowered stream's length. The *ir.Module is
// never modified — the walk engine keeps executing the original program.
//
// Hot opcode pairs are fused into superinstructions: a comparison feeding
// the block's conditional branch folds into the terminator, and a second
// register-ALU op or store piggybacks in a cinstr's op2 slot (the load+op
// and op+store superinstructions), saving a dispatch round per pair while
// executing in exactly the original order.
//
// Lowering is execution-independent: it captures only module constants,
// never run state, so one lowered module is shared by every concurrent run
// (the experiment pool's workers all execute the same *ir.Module). It is
// memoized on the module it was lowered from, so it is built once and freed
// together with that module.
package interp

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/trap"
)

// copcode is a lowered opcode. The ALU values double as op2 (secondary)
// opcodes in a fused superinstruction.
type copcode uint8

const (
	copNone copcode = iota // op2 only: no fused secondary

	// Register ALU. d,a,b operands; copConstI carries the value in x.
	copConstI
	copMov
	copAdd
	copSub
	copMul
	copDiv
	copRem
	copAnd
	copOr
	copXor
	copShl
	copShr
	copFAdd
	copFSub
	copFMul
	copFDiv
	copCmpEQ
	copCmpLT
	copCmpLE
	copFCmpLT
	copI2F
	copF2I

	// Globals. Static (in-bounds proven at lowering): a=global, x=byteOff.
	// Dynamic: a=index reg, b2=global, x=word count, imm=base offset.
	// Loads write d; stores read the value from b.
	copLoadG
	copLoadGF
	copStoreG
	copStoreGF
	copLoadGD
	copLoadGFD
	copStoreGD
	copStoreGFD

	// Stack slots. Static: x=frame offset (slot.Off+byteOff); stores also
	// carry a=slot symbol and imm=byteOff for the recorder. Dynamic: a=index
	// reg, b2=symbol, imm=base offset, x=pool index of {slot.Off, slot.Size}.
	// Loads write d; stores read the value from b.
	copLoadS
	copLoadSF
	copStoreS
	copStoreSF
	copLoadSD
	copLoadSFD
	copStoreSD
	copStoreSFD

	// Heap. a=pointer reg, b=index reg (-1 for none), imm=base offset.
	// Loads write d; stores read the value from d (as in the IR).
	copLoadH
	copLoadHF
	copStoreH
	copStoreHF

	copAlloc // d, x=size
	copFree  // a
	copSink  // a
	copSinkF // a
	copSlow  // x=index into lowFunc.slow (static out-of-bounds, unknown ops)
)

// cinstr is one lowered instruction: primary op plus an optional fused
// secondary in op2 (executed immediately after, in original program order).
// Secondary operands ride in d2/a2/b2; secondary stores reuse x/imm, which
// fusion only allows when the primary leaves them free.
type cinstr struct {
	op, op2    copcode
	d, a, b    int32
	d2, a2, b2 int32
	imm        int64
	x          uint64
}

// slowOp is the escape hatch for rare, pre-decided outcomes (static
// out-of-bounds traps with the walk engine's exact report, unknown opcodes).
type slowOp func(en *cvm, fr *cframe)

// lowModule is a module lowered for the compiled engine.
type lowModule struct {
	m     *ir.Module
	funcs []*lowFunc

	// maxOperands is the most operands one block records in a trace.
	maxOperands int
	// replay holds the replay lists (see replay.go), built on first use.
	replayOnce sync.Once
	replay     [][]replayBlock
	// kept is the compressed trace the module keeps for its runs to
	// replay, claimed says a recording for it is in flight, and overCap
	// that one outgrew TraceCap, after which the module records no more
	// (see ClaimTrace). They are freed with the module.
	kept    atomic.Pointer[Trace]
	claimed atomic.Bool
	overCap atomic.Bool
}

// lowFunc is one function's flat form.
type lowFunc struct {
	fn         int
	f          *ir.Function
	blocks     []lowBlock
	numRegs    int
	stackWords int
	pool       []uint64 // operand overflow: {slot.Off, slot.Size} pairs
	slow       []slowOp
}

// lowBlock is one basic block: segments of straight-line cinstrs separated
// by control instructions (calls, throws), plus the lowered terminator.
type lowBlock struct {
	off  uint64 // static byte offset (overridden by the layout's FuncLayout.Blocks)
	size uint64
	live uint64
	// operands is how many operands its ops record in a trace, at most
	// (see trace.go).
	operands int
	segs     []lowSeg
	// plain holds the ops of a block whose only segment is straight-line —
	// the common shape — letting exec skip the segment scaffolding.
	plain []cinstr
	term  lowTerm
}

// segKind says how a segment ends.
type segKind uint8

const (
	segPlain segKind = iota // falls through to the next segment / terminator
	segCall                 // ends in a call (possibly an invoke)
	segThrow                // ends in a throw
)

// lowSeg is a run of straight-line cinstrs with at most one trailing
// control instruction, which the block driver handles directly.
type lowSeg struct {
	ops   []cinstr
	kind  segKind
	call  lowCall
	throw int32 // exception value register (segThrow)
}

// lowCall is a pre-decoded call site.
type lowCall struct {
	callee  int
	dst     int32    // result register, -1 for none
	args    []int32  // caller-frame argument registers
	pcOff   mem.Addr // call-site offset within the block (slot index × 5)
	handler int32    // invoke handler block, -1 for none
}

// lowTerm is a pre-decoded terminator. When fused is not OpNop, the block's
// trailing comparison has been folded into the branch (the compare+branch
// superinstruction): the driver evaluates it, writes cmpDst (successor
// blocks may read it), and branches on the result without a dispatch.
type lowTerm struct {
	kind    ir.TermKind
	cond    int32
	then    int32
	els     int32
	val     int32 // return value register, -1 for none
	encSize uint64

	fused              ir.Op
	cmpDst, cmpA, cmpB int32
}

// lowerings counts lowerModule calls; tests read it to check that a module
// is lowered exactly once.
var lowerings atomic.Uint64

// lowered returns the module's flat form. It is built on the module's first
// compiled run and memoized on the module (ir.Module.Lowered): every later
// run shares it, concurrent first runs wait for the one build, and the
// garbage collector frees it together with the module. A Clone is a new
// module and is lowered afresh.
func lowered(m *ir.Module) *lowModule {
	return m.Lowered(func(m *ir.Module) any { return lowerModule(m) }).(*lowModule)
}

func lowerModule(m *ir.Module) *lowModule {
	lowerings.Add(1)
	lm := &lowModule{m: m, funcs: make([]*lowFunc, len(m.Funcs))}
	for fi, f := range m.Funcs {
		lm.funcs[fi] = lowerFunc(m, f, fi)
		for bi := range lm.funcs[fi].blocks {
			lm.maxOperands = max(lm.maxOperands, lm.funcs[fi].blocks[bi].operands)
		}
	}
	return lm
}

func lowerFunc(m *ir.Module, f *ir.Function, fnIdx int) *lowFunc {
	lf := &lowFunc{
		fn:         fnIdx,
		f:          f,
		blocks:     make([]lowBlock, len(f.Blocks)),
		numRegs:    f.NumRegs,
		stackWords: int((f.FrameSize - 16) / 8),
	}
	sb := cloneBlocks(f)
	propagateCopies(f, sb)
	liveIn := liveness(f, sb)
	if coalesceCopies(f, sb, liveIn) {
		// Registers were renamed; the live-in sets for dead-code elimination
		// must be recomputed over the rewritten blocks.
		liveIn = liveness(f, sb)
	}
	deadCode(f, sb, liveIn)
	for bi, b := range f.Blocks {
		lf.blocks[bi] = lf.lowerBlock(m, f, fnIdx, b, &sb[bi])
	}
	return lf
}

// scratchBlock is a mutable copy of one block the register passes work on.
// The original *ir.Module is shared with the walk engine and never touched.
type scratchBlock struct {
	instrs []ir.Instr
	term   ir.Terminator
}

func cloneBlocks(f *ir.Function) []scratchBlock {
	out := make([]scratchBlock, len(f.Blocks))
	for bi, b := range f.Blocks {
		instrs := make([]ir.Instr, len(b.Instrs))
		copy(instrs, b.Instrs)
		for i := range instrs {
			if len(instrs[i].Args) > 0 {
				args := make([]ir.Reg, len(instrs[i].Args))
				copy(args, instrs[i].Args)
				instrs[i].Args = args
			}
		}
		out[bi] = scratchBlock{instrs: instrs, term: b.Term}
	}
	return out
}

// instrReads calls fn for every register the instruction reads. Note the
// two IR quirks: stores read their value from B except heap stores, which
// read it from Dst; and an unknown opcode reads nothing (it can only abort
// the run, so register state at that point is unobservable).
func instrReads(in *ir.Instr, fn func(ir.Reg)) {
	switch in.Op {
	case ir.OpMov, ir.OpI2F, ir.OpF2I, ir.OpFree, ir.OpThrow, ir.OpSink, ir.OpSinkF:
		fn(in.A)
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpCmpEQ, ir.OpCmpLT, ir.OpCmpLE, ir.OpFCmpLT:
		fn(in.A)
		fn(in.B)
	case ir.OpLoadG, ir.OpLoadGF, ir.OpLoadS, ir.OpLoadSF:
		if in.A != ir.NoReg {
			fn(in.A)
		}
	case ir.OpStoreG, ir.OpStoreGF, ir.OpStoreS, ir.OpStoreSF:
		if in.A != ir.NoReg {
			fn(in.A)
		}
		fn(in.B)
	case ir.OpLoadH, ir.OpLoadHF:
		fn(in.A)
		if in.B != ir.NoReg {
			fn(in.B)
		}
	case ir.OpStoreH, ir.OpStoreHF:
		fn(in.A)
		if in.B != ir.NoReg {
			fn(in.B)
		}
		fn(in.Dst) // the value register rides in Dst for heap stores
	case ir.OpCall:
		for _, a := range in.Args {
			fn(a)
		}
	}
}

// instrDef returns the register the instruction writes, or NoReg. Heap
// stores do not define Dst — they read it (see instrReads).
func instrDef(in *ir.Instr) ir.Reg {
	switch in.Op {
	case ir.OpConstI, ir.OpConstF, ir.OpMov,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpCmpEQ, ir.OpCmpLT, ir.OpCmpLE, ir.OpFCmpLT,
		ir.OpI2F, ir.OpF2I,
		ir.OpLoadG, ir.OpLoadGF, ir.OpLoadS, ir.OpLoadSF,
		ir.OpLoadH, ir.OpLoadHF,
		ir.OpAlloc, ir.OpCall:
		return in.Dst
	}
	return ir.NoReg
}

// renameReads rewrites every register read through the current copy table.
func renameReads(in *ir.Instr, val []ir.Reg) {
	switch in.Op {
	case ir.OpMov, ir.OpI2F, ir.OpF2I, ir.OpFree, ir.OpThrow, ir.OpSink, ir.OpSinkF:
		in.A = val[in.A]
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpCmpEQ, ir.OpCmpLT, ir.OpCmpLE, ir.OpFCmpLT:
		in.A = val[in.A]
		in.B = val[in.B]
	case ir.OpLoadG, ir.OpLoadGF, ir.OpLoadS, ir.OpLoadSF:
		if in.A != ir.NoReg {
			in.A = val[in.A]
		}
	case ir.OpStoreG, ir.OpStoreGF, ir.OpStoreS, ir.OpStoreSF:
		if in.A != ir.NoReg {
			in.A = val[in.A]
		}
		in.B = val[in.B]
	case ir.OpLoadH, ir.OpLoadHF:
		in.A = val[in.A]
		if in.B != ir.NoReg {
			in.B = val[in.B]
		}
	case ir.OpStoreH, ir.OpStoreHF:
		in.A = val[in.A]
		if in.B != ir.NoReg {
			in.B = val[in.B]
		}
		in.Dst = val[in.Dst]
	case ir.OpCall:
		for i, a := range in.Args {
			in.Args[i] = val[a]
		}
	}
}

// propagateCopies renames reads through still-valid Mov copies, block by
// block. val[r] is the register that provably holds the same value as r
// right now (identity by default). The Movs themselves are kept — deadCode
// removes the ones whose results no longer have readers — so a register
// whose copy relation is invalidated by a later write to the source still
// holds the correct value at run time.
func propagateCopies(f *ir.Function, blocks []scratchBlock) {
	val := make([]ir.Reg, f.NumRegs)
	kill := func(d ir.Reg) {
		// A write to d invalidates both directions of every copy relation
		// involving d: registers that aliased d, and — when d was itself a
		// Mov destination later redefined by a non-Mov op — d's own mapping
		// to the Mov source, which now holds a different value.
		val[d] = d
		for i := range val {
			if val[i] == d {
				val[i] = ir.Reg(i)
			}
		}
	}
	for bi := range blocks {
		sb := &blocks[bi]
		for i := range val {
			val[i] = ir.Reg(i)
		}
		for ii := range sb.instrs {
			in := &sb.instrs[ii]
			if in.Op == ir.OpNop {
				continue
			}
			renameReads(in, val)
			if in.Op == ir.OpMov {
				src, d := in.A, in.Dst
				kill(d)
				if src != d {
					val[d] = src
				}
				continue
			}
			if d := instrDef(in); d != ir.NoReg {
				kill(d)
			}
		}
		if sb.term.Kind == ir.TermBr && sb.term.Cond != ir.NoReg {
			sb.term.Cond = val[sb.term.Cond]
		}
		if sb.term.Kind == ir.TermRet && sb.term.Val != ir.NoReg {
			sb.term.Val = val[sb.term.Val]
		}
	}
}

// bitset is a dense register set for the liveness pass.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) get(i ir.Reg) bool { return s[uint(i)/64]&(1<<(uint(i)%64)) != 0 }
func (s bitset) set(i ir.Reg)      { s[uint(i)/64] |= 1 << (uint(i) % 64) }
func (s bitset) clr(i ir.Reg)      { s[uint(i)/64] &^= 1 << (uint(i) % 64) }

func (s bitset) clearAll() { clear(s) }

// or merges t into s and reports whether s changed.
func (s bitset) or(t bitset) bool {
	changed := false
	for i, w := range t {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

// termLiveOut seeds live with everything live at the end of the block: the
// union of the successors' live-in sets plus the terminator's own reads.
func termLiveOut(t *ir.Terminator, live bitset, liveIn []bitset) {
	switch t.Kind {
	case ir.TermJmp:
		live.or(liveIn[t.Then])
	case ir.TermBr:
		live.or(liveIn[t.Then])
		live.or(liveIn[t.Else])
		if t.Cond != ir.NoReg {
			live.set(t.Cond)
		}
	case ir.TermRet:
		if t.Val != ir.NoReg {
			live.set(t.Val)
		}
	}
}

// blockTransfer runs the backward liveness transfer over one block's
// instructions, mutating live in place. An invoke (call with a handler) is
// a mid-block exit: the handler's live-in joins at the call site, so values
// the handler reads stay live across the instructions before the call.
func blockTransfer(sb *scratchBlock, live bitset, liveIn []bitset) {
	for ii := len(sb.instrs) - 1; ii >= 0; ii-- {
		in := &sb.instrs[ii]
		if in.Op == ir.OpNop {
			continue
		}
		if d := instrDef(in); d != ir.NoReg {
			live.clr(d)
		}
		if in.Op == ir.OpCall && in.Imm != 0 {
			if h := int(in.Imm) - 1; h >= 0 && h < len(liveIn) {
				live.or(liveIn[h])
			}
		}
		instrReads(in, func(r ir.Reg) { live.set(r) })
	}
}

// liveness computes per-block live-in sets by iterating the backward
// transfer to a fixpoint.
func liveness(f *ir.Function, blocks []scratchBlock) []bitset {
	liveIn := make([]bitset, len(blocks))
	for i := range liveIn {
		liveIn[i] = newBitset(f.NumRegs)
	}
	tmp := newBitset(f.NumRegs)
	for changed := true; changed; {
		changed = false
		for bi := len(blocks) - 1; bi >= 0; bi-- {
			sb := &blocks[bi]
			tmp.clearAll()
			termLiveOut(&sb.term, tmp, liveIn)
			blockTransfer(sb, tmp, liveIn)
			if liveIn[bi].or(tmp) {
				changed = true
			}
		}
	}
	return liveIn
}

// coalesceMaxRegs bounds the interference matrix (n² bits); functions with
// more registers skip coalescing rather than pay quadratic memory.
const coalesceMaxRegs = 2048

// coalesceCopies merges copy-related registers that never simultaneously
// hold different live values — classic Chaitin-style copy coalescing over an
// interference graph. The Movs that remain after per-block copy propagation
// are almost all loop-carried shuffles (mov i, i_next at the bottom of a
// loop body), which propagateCopies cannot touch because the relation spans
// blocks. Coalescing the two sides into one register turns those Movs into
// self-copies, which are dropped outright.
//
// Soundness: registers are invisible to every observer the engines are
// pinned on, a Mov charges no machine cost and records no event, and
// steps/Retire accounting uses the original block's Live count — so a
// removed self-copy changes nothing any digest, Observer snapshot, or trap
// can see. The interference graph is built with the same conservative
// liveness as blockTransfer (invoke handlers join mid-block), and a def adds
// edges whether or not its result is live, so a later clobber of either
// register forbids the merge.
//
// Argument registers keep their indices — call() writes arguments into
// registers 0..Params-1 of the callee frame — so a class containing a param
// is represented by that param, and two params never merge.
func coalesceCopies(f *ir.Function, blocks []scratchBlock, liveIn []bitset) bool {
	n := f.NumRegs
	if n == 0 || n > coalesceMaxRegs {
		return false
	}
	itf := make([]bitset, n)
	for i := range itf {
		itf[i] = newBitset(n)
	}
	live := newBitset(n)
	// addEdges marks d as interfering with everything currently live except
	// itself and (for a Mov) its source, which holds the same value.
	addEdges := func(d, src ir.Reg) {
		for i, w := range live {
			for w != 0 {
				r := ir.Reg(i*64 + bits.TrailingZeros64(w))
				w &= w - 1
				if r != d && r != src {
					itf[d].set(r)
					itf[r].set(d)
				}
			}
		}
	}
	for bi := range blocks {
		sb := &blocks[bi]
		live.clearAll()
		termLiveOut(&sb.term, live, liveIn)
		for ii := len(sb.instrs) - 1; ii >= 0; ii-- {
			in := &sb.instrs[ii]
			if in.Op == ir.OpNop {
				continue
			}
			if in.Op == ir.OpCall && in.Imm != 0 {
				// The handler's live-in is live across the call on the
				// exception path; folding it in before the def's edges keeps
				// the graph conservative.
				if h := int(in.Imm) - 1; h >= 0 && h < len(liveIn) {
					live.or(liveIn[h])
				}
			}
			if d := instrDef(in); d != ir.NoReg {
				src := ir.NoReg
				if in.Op == ir.OpMov {
					src = in.A
				}
				addEdges(d, src)
				live.clr(d)
			}
			instrReads(in, func(r ir.Reg) { live.set(r) })
		}
	}
	// Params are defined at entry by call() with the argument values — which
	// persist in their slots even when the param itself is dead, unlike
	// ordinary registers, which read as zero until first written. A register
	// that is live-in at entry (read before any def, i.e. its value is that
	// implicit zero) must therefore never share a slot with a param.
	if len(blocks) > 0 {
		live.clearAll()
		live.or(liveIn[0])
		for p := 0; p < f.Params; p++ {
			addEdges(ir.Reg(p), ir.NoReg)
		}
	}

	// Union-find over registers; path-halving find. Merge order is program
	// order of the Movs, so lowering stays deterministic.
	rep := make([]ir.Reg, n)
	for i := range rep {
		rep[i] = ir.Reg(i)
	}
	find := func(r ir.Reg) ir.Reg {
		for rep[r] != r {
			rep[r] = rep[rep[r]]
			r = rep[r]
		}
		return r
	}
	isParam := func(r ir.Reg) bool { return int(r) < f.Params }
	changed := false
	for bi := range blocks {
		for ii := range blocks[bi].instrs {
			in := &blocks[bi].instrs[ii]
			if in.Op != ir.OpMov {
				continue
			}
			ra, rb := find(in.Dst), find(in.A)
			if ra == rb {
				changed = true // already one class: the Mov nops in rewrite
				continue
			}
			if (isParam(ra) && isParam(rb)) || itf[ra].get(rb) {
				continue
			}
			// Keep a param — else the smaller index — as representative.
			if isParam(rb) || (!isParam(ra) && rb < ra) {
				ra, rb = rb, ra
			}
			rep[rb] = ra
			itf[ra].or(itf[rb])
			// Mirror rb's edges onto ra to keep the matrix symmetric for
			// later union tests.
			for i, w := range itf[rb] {
				for w != 0 {
					r := ir.Reg(i*64 + bits.TrailingZeros64(w))
					w &= w - 1
					itf[r].set(ra)
				}
			}
			changed = true
		}
	}
	if !changed {
		return false
	}

	// Rewrite every operand through its class representative; Movs whose two
	// sides landed in one class become self-copies and are dropped.
	table := make([]ir.Reg, n)
	for i := range table {
		table[i] = find(ir.Reg(i))
	}
	for bi := range blocks {
		sb := &blocks[bi]
		for ii := range sb.instrs {
			in := &sb.instrs[ii]
			if in.Op == ir.OpNop {
				continue
			}
			renameReads(in, table)
			if d := instrDef(in); d != ir.NoReg {
				in.Dst = table[d]
			}
			if in.Op == ir.OpMov && in.Dst == in.A {
				in.Op = ir.OpNop
			}
		}
		if sb.term.Kind == ir.TermBr && sb.term.Cond != ir.NoReg {
			sb.term.Cond = table[sb.term.Cond]
		}
		if sb.term.Kind == ir.TermRet && sb.term.Val != ir.NoReg {
			sb.term.Val = table[sb.term.Val]
		}
	}
	return true
}

// deletable reports whether the op may be removed when its result is dead:
// it must charge no machine cost (no Stall, no memory access, no Retire
// beyond the block-granular count, which never looks at the lowered
// stream), never trap, and record no event. Note Mul/Div/Rem, the float
// multiplies/divides, and the conversions all Stall and so must stay.
func deletable(o ir.Op) bool {
	switch o {
	case ir.OpConstI, ir.OpConstF, ir.OpMov,
		ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpFAdd, ir.OpFSub,
		ir.OpCmpEQ, ir.OpCmpLT, ir.OpCmpLE, ir.OpFCmpLT:
		return true
	}
	return false
}

// deadCode removes charge-free register ops whose results are never read —
// mostly the Movs that propagateCopies just renamed every reader away from.
// Deleted ops become Nops so instruction indices (which call-site PC
// offsets are derived from) stay stable.
func deadCode(f *ir.Function, blocks []scratchBlock, liveIn []bitset) {
	live := newBitset(f.NumRegs)
	for bi := range blocks {
		sb := &blocks[bi]
		live.clearAll()
		termLiveOut(&sb.term, live, liveIn)
		for ii := len(sb.instrs) - 1; ii >= 0; ii-- {
			in := &sb.instrs[ii]
			if in.Op == ir.OpNop {
				continue
			}
			if deletable(in.Op) && in.Dst != ir.NoReg && !live.get(in.Dst) {
				in.Op = ir.OpNop
				continue
			}
			if d := instrDef(in); d != ir.NoReg {
				live.clr(d)
			}
			if in.Op == ir.OpCall && in.Imm != 0 {
				if h := int(in.Imm) - 1; h >= 0 && h < len(liveIn) {
					live.or(liveIn[h])
				}
			}
			instrReads(in, func(r ir.Reg) { live.set(r) })
		}
	}
}

func isCmp(o ir.Op) bool {
	switch o {
	case ir.OpCmpEQ, ir.OpCmpLT, ir.OpCmpLE, ir.OpFCmpLT:
		return true
	}
	return false
}

// lastLiveIdx returns the index of the block's last non-nop instruction.
func lastLiveIdx(instrs []ir.Instr) int {
	for i := len(instrs) - 1; i >= 0; i-- {
		if instrs[i].Op != ir.OpNop {
			return i
		}
	}
	return -1
}

func (lf *lowFunc) lowerBlock(m *ir.Module, f *ir.Function, fnIdx int, b *ir.Block, sb *scratchBlock) lowBlock {
	lb := lowBlock{off: b.Off, size: b.Size, live: b.Live}
	lt := lowTerm{
		kind:    sb.term.Kind,
		cond:    int32(sb.term.Cond),
		then:    int32(sb.term.Then),
		els:     int32(sb.term.Else),
		val:     int32(sb.term.Val),
		encSize: b.Term.EncodedSize(),
		fused:   ir.OpNop,
	}

	// Compare+branch superinstruction: a trailing comparison that feeds the
	// conditional terminator folds into it. The comparison's register write
	// is kept (a successor block may read it); only the dispatch is saved.
	consumed := -1
	if sb.term.Kind == ir.TermBr {
		if li := lastLiveIdx(sb.instrs); li >= 0 {
			in := &sb.instrs[li]
			if isCmp(in.Op) && in.Dst == sb.term.Cond {
				lt.fused = in.Op
				lt.cmpDst, lt.cmpA, lt.cmpB = int32(in.Dst), int32(in.A), int32(in.B)
				consumed = li
			}
		}
	}

	var cur lowSeg
	endSeg := func(kind segKind) {
		cur.kind = kind
		cur.ops = fuseOps(cur.ops)
		lb.segs = append(lb.segs, cur)
		cur = lowSeg{}
	}
	for idx := range sb.instrs {
		in := &sb.instrs[idx]
		if in.Op == ir.OpNop || idx == consumed {
			continue
		}
		switch in.Op {
		case ir.OpCall:
			args := make([]int32, len(in.Args))
			for i, a := range in.Args {
				args[i] = int32(a)
			}
			cur.call = lowCall{
				callee:  int(in.Sym),
				dst:     int32(in.Dst),
				args:    args,
				pcOff:   mem.Addr(idx) * 5, // slot index over all slots, as the walk engine counts
				handler: int32(in.Imm) - 1,
			}
			endSeg(segCall)
		case ir.OpThrow:
			cur.throw = int32(in.A)
			endSeg(segThrow)
		default:
			cur.ops = append(cur.ops, lf.emit(m, f, in))
		}
	}
	if len(cur.ops) > 0 {
		endSeg(segPlain)
	}
	if len(lb.segs) == 1 && lb.segs[0].kind == segPlain {
		lb.plain = lb.segs[0].ops
	}
	for _, sg := range lb.segs {
		for i := range sg.ops {
			lb.operands += tracedOperands(sg.ops[i].op) + tracedOperands(sg.ops[i].op2)
		}
	}
	lb.term = lt
	return lb
}

// tracedOperands is how many operands an op records in a trace.
func tracedOperands(op copcode) int {
	switch op {
	case copLoadGD, copLoadGFD, copStoreGD, copStoreGFD,
		copLoadSD, copLoadSFD, copStoreSD, copStoreSFD, copFree:
		return 1
	case copLoadH, copLoadHF, copStoreH, copStoreHF:
		return 2
	}
	return 0
}

// emit pre-decodes one straight-line instruction. The runOps bodies these
// opcodes select mirror the walk engine's switch arms exactly — same
// machine charges in the same order, same recorder events, same trap kinds
// and messages — with operand decoding and statically resolvable address
// arithmetic done here instead of per execution.
func (lf *lowFunc) emit(m *ir.Module, f *ir.Function, in *ir.Instr) cinstr {
	d, a, b := int32(in.Dst), int32(in.A), int32(in.B)
	imm := in.Imm
	switch in.Op {
	case ir.OpConstI, ir.OpConstF:
		return cinstr{op: copConstI, d: d, x: uint64(imm)}
	case ir.OpMov:
		return cinstr{op: copMov, d: d, a: a}
	case ir.OpAdd:
		return cinstr{op: copAdd, d: d, a: a, b: b}
	case ir.OpSub:
		return cinstr{op: copSub, d: d, a: a, b: b}
	case ir.OpMul:
		return cinstr{op: copMul, d: d, a: a, b: b}
	case ir.OpDiv:
		return cinstr{op: copDiv, d: d, a: a, b: b}
	case ir.OpRem:
		return cinstr{op: copRem, d: d, a: a, b: b}
	case ir.OpAnd:
		return cinstr{op: copAnd, d: d, a: a, b: b}
	case ir.OpOr:
		return cinstr{op: copOr, d: d, a: a, b: b}
	case ir.OpXor:
		return cinstr{op: copXor, d: d, a: a, b: b}
	case ir.OpShl:
		return cinstr{op: copShl, d: d, a: a, b: b}
	case ir.OpShr:
		return cinstr{op: copShr, d: d, a: a, b: b}
	case ir.OpFAdd:
		return cinstr{op: copFAdd, d: d, a: a, b: b}
	case ir.OpFSub:
		return cinstr{op: copFSub, d: d, a: a, b: b}
	case ir.OpFMul:
		return cinstr{op: copFMul, d: d, a: a, b: b}
	case ir.OpFDiv:
		return cinstr{op: copFDiv, d: d, a: a, b: b}
	case ir.OpCmpEQ:
		return cinstr{op: copCmpEQ, d: d, a: a, b: b}
	case ir.OpCmpLT:
		return cinstr{op: copCmpLT, d: d, a: a, b: b}
	case ir.OpCmpLE:
		return cinstr{op: copCmpLE, d: d, a: a, b: b}
	case ir.OpFCmpLT:
		return cinstr{op: copFCmpLT, d: d, a: a, b: b}
	case ir.OpI2F:
		return cinstr{op: copI2F, d: d, a: a}
	case ir.OpF2I:
		return cinstr{op: copF2I, d: d, a: a}

	case ir.OpLoadG, ir.OpLoadGF, ir.OpStoreG, ir.OpStoreGF:
		return lf.emitGlobal(m, in)
	case ir.OpLoadS, ir.OpLoadSF, ir.OpStoreS, ir.OpStoreSF:
		return lf.emitStack(f, in)

	case ir.OpLoadH:
		return cinstr{op: copLoadH, d: d, a: a, b: b, imm: imm}
	case ir.OpLoadHF:
		return cinstr{op: copLoadHF, d: d, a: a, b: b, imm: imm}
	case ir.OpStoreH:
		return cinstr{op: copStoreH, d: d, a: a, b: b, imm: imm}
	case ir.OpStoreHF:
		return cinstr{op: copStoreHF, d: d, a: a, b: b, imm: imm}

	case ir.OpAlloc:
		return cinstr{op: copAlloc, d: d, x: uint64(imm)}
	case ir.OpFree:
		return cinstr{op: copFree, a: a}
	case ir.OpSink:
		return cinstr{op: copSink, a: a}
	case ir.OpSinkF:
		return cinstr{op: copSinkF, a: a}
	}

	// Unknown opcode: fail at execution time with the walk engine's error,
	// not at lowering time — an unreachable bad instruction must not break
	// a program that never executes it.
	fname, op := f.Name, in.Op
	return lf.emitSlow(func(en *cvm, fr *cframe) {
		en.failf("%s: unimplemented opcode %v", fname, op)
	})
}

func (lf *lowFunc) emitSlow(fn slowOp) cinstr {
	lf.slow = append(lf.slow, fn)
	return cinstr{op: copSlow, x: uint64(len(lf.slow) - 1)}
}

// emitGlobal pre-decodes a global access. With a static offset the bounds
// check — against the global's fixed word count — resolves at lowering
// time: in-bounds sites skip it entirely, out-of-bounds sites lower to an
// unconditional trap with the walk engine's exact report.
func (lf *lowFunc) emitGlobal(m *ir.Module, in *ir.Instr) cinstr {
	g := int32(in.Sym)
	words := int64(m.Globals[g].Size / 8)
	isFloat := in.Op.IsFloat()
	store := in.Op.IsStore()

	if in.A == ir.NoReg {
		byteOff := in.Imm
		if w := byteOff / 8; byteOff < 0 || w >= words || byteOff%8 != 0 {
			gname := m.Globals[g].Name
			return lf.emitSlow(func(en *cvm, fr *cframe) {
				en.trap(trap.OutOfBounds, "global %s access at byte %d outside %d bytes",
					gname, byteOff, words*8)
			})
		}
		op := copLoadG
		switch {
		case store && isFloat:
			op = copStoreGF
		case store:
			op = copStoreG
		case isFloat:
			op = copLoadGF
		}
		return cinstr{op: op, d: int32(in.Dst), a: g, b: int32(in.B), x: uint64(byteOff)}
	}

	op := copLoadGD
	switch {
	case store && isFloat:
		op = copStoreGFD
	case store:
		op = copStoreGD
	case isFloat:
		op = copLoadGFD
	}
	return cinstr{op: op, d: int32(in.Dst), a: int32(in.A), b: int32(in.B),
		b2: g, imm: in.Imm, x: uint64(words)}
}

// emitStack pre-decodes a frame access. Slot offset and size are fixed by
// Finalize, so with a static index both the bounds check and the in-frame
// word index resolve at lowering time; only the frame base is per-call.
// Dynamic-index sites park {slot.Off, slot.Size} in the function's operand
// pool (they need two full words, which a cinstr has no room for).
func (lf *lowFunc) emitStack(f *ir.Function, in *ir.Instr) cinstr {
	sym := int32(in.Sym)
	slot := f.Slots[sym]
	isFloat := in.Op.IsFloat()
	store := in.Op.IsStore()

	if in.A == ir.NoReg {
		byteOff := in.Imm
		if byteOff < 0 || uint64(byteOff) >= slot.Size || byteOff%8 != 0 {
			fname, slotName, slotSize := f.Name, slot.Name, slot.Size
			return lf.emitSlow(func(en *cvm, fr *cframe) {
				en.trap(trap.OutOfBounds, "%s: stack slot %s access at byte %d outside %d bytes",
					fname, slotName, byteOff, slotSize)
			})
		}
		addrOff := slot.Off + uint64(byteOff)
		op := copLoadS
		switch {
		case store && isFloat:
			op = copStoreSF
		case store:
			op = copStoreS
		case isFloat:
			op = copLoadSF
		}
		return cinstr{op: op, d: int32(in.Dst), a: sym, b: int32(in.B),
			imm: byteOff, x: addrOff}
	}

	pi := uint64(len(lf.pool))
	lf.pool = append(lf.pool, slot.Off, slot.Size)
	op := copLoadSD
	switch {
	case store && isFloat:
		op = copStoreSFD
	case store:
		op = copStoreSD
	case isFloat:
		op = copLoadSFD
	}
	return cinstr{op: op, d: int32(in.Dst), a: int32(in.A), b: int32(in.B),
		b2: sym, imm: in.Imm, x: pi}
}

// Field-usage masks drive superinstruction fusion: a secondary op may move
// into a primary's op2 slot only when the fields it needs (beyond d2/a2/b2,
// which are secondary-only) are not used by the primary.
const (
	fmX     uint8 = 1 << iota // uses x
	fmImm                     // uses imm
	fmRegs2                   // uses d2/a2/b2 (dynamic-index ops)
	fmNever                   // never hosts a secondary
)

func fieldmask(op copcode) uint8 {
	switch op {
	case copConstI, copLoadG, copLoadGF, copStoreG, copStoreGF, copAlloc:
		return fmX
	case copLoadS, copLoadSF:
		return fmX // imm is carried but unused by loads
	case copStoreS, copStoreSF:
		return fmX | fmImm
	case copLoadGD, copLoadGFD, copStoreGD, copStoreGFD,
		copLoadSD, copLoadSFD, copStoreSD, copStoreSFD:
		return fmX | fmImm | fmRegs2
	case copLoadH, copLoadHF, copStoreH, copStoreHF:
		return fmImm
	case copSlow:
		return fmNever | fmX | fmImm | fmRegs2
	}
	return 0 // pure register ops
}

// secNeeds returns the fields a fused secondary occupies, and whether the
// opcode can ride in an op2 slot at all. All secondaries take d2/a2/b2;
// secondary stores additionally reuse x and/or imm.
func secNeeds(op copcode) (uint8, bool) {
	switch op {
	case copMov, copAdd, copSub, copMul, copDiv, copRem,
		copAnd, copOr, copXor, copShl, copShr,
		copFAdd, copFSub, copFMul, copFDiv,
		copCmpEQ, copCmpLT, copCmpLE, copFCmpLT, copI2F, copF2I,
		copSink, copSinkF, copFree:
		return fmRegs2, true
	case copConstI:
		return fmRegs2 | fmX, true
	case copLoadS, copLoadSF:
		return fmRegs2 | fmX, true
	case copStoreS, copStoreSF:
		return fmRegs2 | fmX | fmImm, true
	case copLoadG, copLoadGF, copStoreG, copStoreGF:
		return fmRegs2 | fmX, true
	case copLoadH, copLoadHF:
		return fmRegs2 | fmImm, true
	case copStoreH, copStoreHF:
		return fmRegs2 | fmImm, true
	}
	return 0, false
}

// fuseOps folds eligible adjacent pairs into one cinstr (the load+op,
// op+op, and op+store superinstructions). The secondary executes
// immediately after the primary in runOps, so every machine charge,
// recorder event, and trap fires in exactly the original order; only the
// dispatch round is saved. If the primary traps, the secondary never runs —
// just as the unfused second op never would have.
func fuseOps(code []cinstr) []cinstr {
	out := code[:0]
	for i := 0; i < len(code); i++ {
		cur := code[i]
		if i+1 < len(code) && cur.op2 == copNone {
			nx := &code[i+1]
			if needs, ok := secNeeds(nx.op); ok && fieldmask(cur.op)&(needs|fmNever) == 0 {
				cur.op2 = nx.op
				switch nx.op {
				case copConstI:
					cur.d2, cur.x = nx.d, nx.x
				case copLoadS, copLoadSF:
					cur.d2, cur.x = nx.d, nx.x
				case copStoreS, copStoreSF:
					cur.d2, cur.a2 = nx.b, nx.a // value, slot symbol
					cur.x, cur.imm = nx.x, nx.imm
				case copLoadG, copLoadGF:
					cur.d2, cur.a2 = nx.d, nx.a // dest, global
					cur.x = nx.x
				case copStoreG, copStoreGF:
					cur.d2, cur.a2 = nx.b, nx.a // value, global
					cur.x = nx.x
				case copLoadH, copLoadHF:
					cur.d2, cur.a2, cur.b2 = nx.d, nx.a, nx.b // dest, pointer, index
					cur.imm = nx.imm
				case copStoreH, copStoreHF:
					cur.d2, cur.a2, cur.b2 = nx.d, nx.a, nx.b // value, pointer, index
					cur.imm = nx.imm
				default: // register ALU, sink, free
					cur.d2, cur.a2, cur.b2 = nx.d, nx.a, nx.b
				}
				i++
			}
		}
		out = append(out, cur)
	}
	return out
}
