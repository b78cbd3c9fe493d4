package compiler

import "repro/internal/ir"

// The scratch tables below serve the block-local and function-local passes.
// A pass's Run declares its own, sizes them once and resets them per block
// or per function by bumping a generation counter, so the pass allocates
// per module, not per block. They are never package state: pool workers
// compile different modules at the same time. A table lives for one pass,
// whose blocks number far fewer than 2^32, so its counter never wraps.

// resize returns s with length n, keeping s's storage when it is large
// enough. Elements are not cleared.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// largest returns the most registers of any function in m and the most
// instructions of any block. A pass that sizes its per-block tables with
// them before the first block spares itself growing them block by block.
func largest(m *ir.Module) (regs, instrs int) {
	for _, f := range m.Funcs {
		regs = max(regs, f.NumRegs)
		for _, b := range f.Blocks {
			instrs = max(instrs, len(b.Instrs))
		}
	}
	return regs, instrs
}

// regTable maps registers to values of type T. An entry is live only if it
// was written in the current generation, so reset costs one increment
// instead of a clear. Register r lives at index r+1, so ir.NoReg is a key
// like any other.
type regTable[T any] struct {
	vals []T
	gens []uint32
	gen  uint32
}

// reset starts a new generation holding registers up to n-1.
func (t *regTable[T]) reset(n int) {
	if n+1 > len(t.vals) {
		n = max(n+1, 2*len(t.vals))
		t.vals = make([]T, n)
		t.gens = make([]uint32, n)
	}
	t.gen++
}

// get returns r's value and whether it was set in this generation.
func (t *regTable[T]) get(r ir.Reg) (T, bool) {
	if t.gens[r+1] != t.gen {
		var zero T
		return zero, false
	}
	return t.vals[r+1], true
}

func (t *regTable[T]) set(r ir.Reg, v T) { t.vals[r+1], t.gens[r+1] = v, t.gen }

func (t *regTable[T]) del(r ir.Reg) { t.gens[r+1] = t.gen - 1 }

// exprKey is a pure expression: an opcode, two operands (value numbers or
// registers, per pass) and an immediate.
type exprKey struct {
	op   ir.Op
	a, b int32
	imm  int64
}

// exprSlot is one entry of an exprTable. Its two payload words are the
// pass's to interpret.
type exprSlot struct {
	key  exprKey
	gen  uint32
	x, y int32
}

// exprTable is an open-addressing hash table from expressions to an
// exprSlot, reset per generation like regTable. It never grows within a
// generation: reset sizes it for the most entries the caller will insert.
type exprTable struct {
	slots []exprSlot
	shift uint // 64 - log2(len(slots))
	gen   uint32
}

// reset starts a new generation with room for n insertions at a load
// factor of at most one half.
func (t *exprTable) reset(n int) {
	if 2*n > len(t.slots) {
		size, shift := 16, uint(60)
		for size < 2*n {
			size, shift = size*2, shift-1
		}
		t.slots, t.shift = make([]exprSlot, size), shift
	}
	t.gen++
}

// find returns k's slot. If k has no entry in this generation the slot's gen
// is stale, and the caller inserts k by filling the slot and stamping it
// with t.gen.
func (t *exprTable) find(k exprKey) *exprSlot {
	h := uint64(k.op) | uint64(uint32(k.a))<<8 ^ uint64(uint32(k.b))<<32 ^ uint64(k.imm)*0xff51afd7ed558ccd
	mask := len(t.slots) - 1
	for i := int((h * 0x9e3779b97f4a7c15) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen || s.key == k {
			return s
		}
	}
}
