// Package compiler implements the optimization passes, pipelines, and static
// linker for the IR — the reproduction's stand-in for LLVM.
//
// The passes matter to the paper in two ways. First, they do real work:
// higher optimization levels retire fewer instructions. Second, they perturb
// layout: they change function sizes and therefore the addresses of
// everything downstream, which is the confound the paper shows can masquerade
// as (or mask) genuine optimization effects. The -O2 and -O3 pipelines here
// are organized after LLVM's: -O2 adds local CSE, loop-invariant code
// motion, and inlining; -O3 adds argument promotion (as interprocedural
// constant propagation), global CSE, scalar replacement of aggregates, dead
// global elimination, and more aggressive inlining (§6).
package compiler

import (
	"math"

	"repro/internal/ir"
)

// Pass is one IR-to-IR transformation.
type Pass interface {
	Name() string
	// Run transforms m in place.
	Run(m *ir.Module)
}

// ConstFold performs per-block constant propagation and folding, including
// the strength reductions (multiply/divide by powers of two to shifts) whose
// cycle savings make -O1 visibly faster than -O0.
type ConstFold struct{}

// Name implements Pass.
func (ConstFold) Name() string { return "constfold" }

// Run implements Pass.
func (ConstFold) Run(m *ir.Module) {
	var konst regTable[int64] // registers known constant at this point of a block
	regs, instrs := largest(m)
	konst.reset(regs + instrs)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			foldBlock(f, b, &konst)
		}
	}
}

// foldBlock rewrites b in place. Only a strength reduction inserts an
// instruction; from the first one on, the block is rebuilt in a new slice.
func foldBlock(f *ir.Function, b *ir.Block, konst *regTable[int64]) {
	// Each instruction adds at most one register, the shift count.
	konst.reset(f.NumRegs + len(b.Instrs))
	var out []ir.Instr // nil while the rewrite is in place
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if out != nil {
			out = append(out, *in)
			in = &out[len(out)-1]
		}
		// Any write invalidates previous knowledge of the destination.
		invalidate := func() {
			if in.Dst != ir.NoReg && in.Op != ir.OpStoreH && in.Op != ir.OpStoreHF {
				konst.del(in.Dst)
			}
		}
		switch in.Op {
		case ir.OpConstI, ir.OpConstF:
			konst.set(in.Dst, in.Imm)
			continue
		case ir.OpMov:
			invalidate()
			if v, ok := konst.get(in.A); ok {
				in.Op, in.Imm, in.A = ir.OpConstI, v, ir.NoReg
				konst.set(in.Dst, v)
			}
			continue
		}
		a, aok := int64(0), false
		bv, bok := int64(0), false
		if in.A != ir.NoReg {
			a, aok = konst.get(in.A)
		}
		if in.B != ir.NoReg {
			bv, bok = konst.get(in.B)
		}
		if folded, ok := foldOp(in.Op, a, aok, bv, bok); ok {
			invalidate()
			in.Op, in.Imm, in.A, in.B = ir.OpConstI, folded, ir.NoReg, ir.NoReg
			konst.set(in.Dst, folded)
			continue
		}
		// Strength reduction: x * 2^k -> x << k, with the shift count
		// materialized in a fresh register so other users of B are
		// unaffected.
		if in.Op == ir.OpMul && bok && bv > 1 && bv&(bv-1) == 0 {
			k := int64(0)
			for v := bv; v > 1; v >>= 1 {
				k++
			}
			cnt := ir.Reg(f.NumRegs)
			f.NumRegs++
			// The count takes the Mul's place; the Mul, now a shift,
			// follows it.
			mul := *in
			*in = ir.Instr{Op: ir.OpConstI, Dst: cnt, A: ir.NoReg, B: ir.NoReg, Imm: k}
			mul.Op = ir.OpShl
			mul.B = cnt
			if out == nil {
				out = make([]ir.Instr, i+1, len(b.Instrs)+1)
				copy(out, b.Instrs[:i+1])
			}
			out = append(out, mul)
			konst.set(cnt, k)
			konst.del(mul.Dst)
			continue
		}
		invalidate()
	}
	if out != nil {
		b.Instrs = out
	}
}

// foldOp evaluates op over constant operands when possible.
func foldOp(op ir.Op, a int64, aok bool, b int64, bok bool) (int64, bool) {
	bin := aok && bok
	switch op {
	case ir.OpAdd:
		if bin {
			return a + b, true
		}
	case ir.OpSub:
		if bin {
			return a - b, true
		}
	case ir.OpMul:
		if bin {
			return a * b, true
		}
	case ir.OpDiv:
		if bin {
			if b == 0 {
				return 0, true
			}
			if a == math.MinInt64 && b == -1 {
				return a, true
			}
			return a / b, true
		}
	case ir.OpRem:
		if bin {
			if b == 0 || (a == math.MinInt64 && b == -1) {
				return 0, true
			}
			return a % b, true
		}
	case ir.OpAnd:
		if bin {
			return a & b, true
		}
	case ir.OpOr:
		if bin {
			return a | b, true
		}
	case ir.OpXor:
		if bin {
			return a ^ b, true
		}
	case ir.OpShl:
		if bin {
			return int64(uint64(a) << (uint64(b) & 63)), true
		}
	case ir.OpShr:
		if bin {
			return int64(uint64(a) >> (uint64(b) & 63)), true
		}
	case ir.OpCmpEQ:
		if bin {
			return b2i(a == b), true
		}
	case ir.OpCmpLT:
		if bin {
			return b2i(a < b), true
		}
	case ir.OpCmpLE:
		if bin {
			return b2i(a <= b), true
		}
	case ir.OpFAdd:
		if bin {
			return ffold(a, b, func(x, y float64) float64 { return x + y }), true
		}
	case ir.OpFSub:
		if bin {
			return ffold(a, b, func(x, y float64) float64 { return x - y }), true
		}
	case ir.OpFMul:
		if bin {
			return ffold(a, b, func(x, y float64) float64 { return x * y }), true
		}
	case ir.OpFDiv:
		if bin {
			return ffold(a, b, func(x, y float64) float64 {
				if y == 0 {
					return 0
				}
				return x / y
			}), true
		}
	case ir.OpFCmpLT:
		if bin {
			return b2i(math.Float64frombits(uint64(a)) < math.Float64frombits(uint64(b))), true
		}
	case ir.OpI2F:
		if aok {
			return int64(math.Float64bits(float64(a))), true
		}
	case ir.OpF2I:
		if aok {
			f := math.Float64frombits(uint64(a))
			switch {
			case math.IsNaN(f):
				return 0, true
			case f >= math.MaxInt64:
				return math.MaxInt64, true
			case f <= math.MinInt64:
				return math.MinInt64, true
			}
			return int64(f), true
		}
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func ffold(a, b int64, f func(x, y float64) float64) int64 {
	return int64(math.Float64bits(f(math.Float64frombits(uint64(a)), math.Float64frombits(uint64(b)))))
}

// DCE removes side-effect-free instructions whose results are never read,
// iterating to a fixpoint so chains of dead computations disappear.
type DCE struct{}

// Name implements Pass.
func (DCE) Name() string { return "dce" }

// Run implements Pass.
func (DCE) Run(m *ir.Module) {
	var used []bool // reused by every function of the pass
	for _, f := range m.Funcs {
		used = resize(used, f.NumRegs)
		for dceOnce(f, used) {
		}
		compactBlocks(f)
	}
}

// dceOnce deletes dead instructions (turning them into nops) and reports
// whether anything changed. used is scratch space, one entry per register.
func dceOnce(f *ir.Function, used []bool) bool {
	clear(used)
	mark := func(r ir.Reg) {
		if r != ir.NoReg {
			used[r] = true
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpNop {
				continue
			}
			mark(in.A)
			mark(in.B)
			for _, a := range in.Args {
				mark(a)
			}
			if in.Op == ir.OpStoreH || in.Op == ir.OpStoreHF {
				mark(in.Dst) // value register rides in Dst for heap stores
			}
		}
		mark(b.Term.Cond)
		mark(b.Term.Val)
	}
	changed := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpNop || in.Op.HasSideEffects() {
				continue
			}
			if in.Dst == ir.NoReg || !used[in.Dst] {
				in.Op = ir.OpNop
				in.A, in.B, in.Args = ir.NoReg, ir.NoReg, nil
				changed = true
			}
		}
	}
	return changed
}

// compactBlocks physically removes nops left by other passes. Instructions
// before a block's first nop stay where they are.
func compactBlocks(f *ir.Function) {
	for _, b := range f.Blocks {
		out := 0
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpNop {
				continue
			}
			if out != i {
				b.Instrs[out] = b.Instrs[i]
			}
			out++
		}
		b.Instrs = b.Instrs[:out]
	}
}

// LocalCSE performs per-block value numbering, replacing recomputations of
// pure expressions with copies.
type LocalCSE struct{}

// Name implements Pass.
func (LocalCSE) Name() string { return "cse" }

// Run implements Pass.
func (LocalCSE) Run(m *ir.Module) {
	var c cse
	regs, instrs := largest(m)
	c.regVN.reset(regs)
	c.exprs.reset(instrs)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			c.block(f, b)
		}
	}
}

// cse holds LocalCSE's tables, reused by every block of a pass.
type cse struct {
	regVN regTable[int32] // value number each register holds
	exprs exprTable       // available expressions: x is the holding register, y its value number
}

// vnOf returns r's value number: -1 for no register, a unique negative
// "unknown" number for a register not yet written in this block.
func (c *cse) vnOf(r ir.Reg) int32 {
	if r == ir.NoReg {
		return -1
	}
	if v, ok := c.regVN.get(r); ok {
		return v
	}
	return -int32(r) - 1
}

// block numbers values within b. An available-expression entry is only
// reused if its holding register still carries the recorded value (non-SSA
// registers can be overwritten).
func (c *cse) block(f *ir.Function, b *ir.Block) {
	c.regVN.reset(f.NumRegs)
	c.exprs.reset(len(b.Instrs))
	next := int32(1)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op == ir.OpNop {
			continue
		}
		if in.Op == ir.OpMov {
			// Copies propagate value numbers.
			c.regVN.set(in.Dst, c.vnOf(in.A))
			continue
		}
		if !isPure(in.Op) {
			// Side-effecting or memory instruction: its destination (if
			// any) gets a fresh number.
			if in.Dst != ir.NoReg && !in.Op.IsStore() {
				c.regVN.set(in.Dst, next)
				next++
			}
			continue
		}
		key := exprKey{op: in.Op, a: c.vnOf(in.A), b: c.vnOf(in.B), imm: in.Imm}
		e := c.exprs.find(key)
		if e.gen == c.exprs.gen && c.vnOf(ir.Reg(e.x)) == e.y && ir.Reg(e.x) != in.Dst {
			in.Op, in.A, in.B, in.Imm = ir.OpMov, ir.Reg(e.x), ir.NoReg, 0
			c.regVN.set(in.Dst, e.y)
			continue
		}
		c.regVN.set(in.Dst, next)
		*e = exprSlot{key: key, gen: c.exprs.gen, x: int32(in.Dst), y: next}
		next++
	}
}

// isPure reports whether an opcode computes a value with no side effects and
// no dependence on memory.
func isPure(op ir.Op) bool {
	switch op {
	case ir.OpConstI, ir.OpConstF, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv,
		ir.OpRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpCmpEQ, ir.OpCmpLT, ir.OpCmpLE, ir.OpFCmpLT,
		ir.OpI2F, ir.OpF2I:
		return true
	}
	return false
}
