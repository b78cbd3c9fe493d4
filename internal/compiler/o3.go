package compiler

import "repro/internal/ir"

// SRA (scalar replacement of aggregates) promotes 8-byte stack slots that
// are only ever accessed whole (offset 0, no index register) into virtual
// registers, removing their memory traffic and shrinking frames.
type SRA struct{}

// Name implements Pass.
func (SRA) Name() string { return "sra" }

// Run implements Pass.
func (SRA) Run(m *ir.Module) {
	for _, f := range m.Funcs {
		sraFunc(f)
	}
	m.Finalize()
}

func sraFunc(f *ir.Function) {
	promotable := make([]bool, len(f.Slots))
	for si, s := range f.Slots {
		promotable[si] = s.Size == 8
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpLoadS, ir.OpStoreS, ir.OpLoadSF, ir.OpStoreSF:
				if in.Imm != 0 || in.A != ir.NoReg {
					promotable[in.Sym] = false
				}
			}
		}
	}
	any := false
	for _, p := range promotable {
		if p {
			any = true
		}
	}
	if !any {
		return
	}

	// One fresh register per promoted slot.
	slotReg := make([]ir.Reg, len(f.Slots))
	for si := range f.Slots {
		if promotable[si] {
			slotReg[si] = ir.Reg(f.NumRegs)
			f.NumRegs++
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpLoadS, ir.OpLoadSF:
				if promotable[in.Sym] {
					*in = ir.Instr{Op: ir.OpMov, Dst: in.Dst, A: slotReg[in.Sym], B: ir.NoReg}
				}
			case ir.OpStoreS, ir.OpStoreSF:
				if promotable[in.Sym] {
					*in = ir.Instr{Op: ir.OpMov, Dst: slotReg[in.Sym], A: in.B, B: ir.NoReg}
				}
			}
		}
	}

	// Remove the promoted slots and renumber the remainder.
	remap := make([]int32, len(f.Slots))
	var kept []ir.StackSlot
	for si, s := range f.Slots {
		if promotable[si] {
			remap[si] = -1
			continue
		}
		remap[si] = int32(len(kept))
		kept = append(kept, s)
	}
	f.Slots = kept
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpLoadS, ir.OpStoreS, ir.OpLoadSF, ir.OpStoreSF:
				in.Sym = remap[in.Sym]
			}
		}
	}
}

// IPConstProp is the reproduction's analogue of LLVM's argument promotion
// (§6): when every call site passes the same compile-time constant for a
// parameter, the constant is materialized at the callee's entry so later
// folding can specialize the body.
type IPConstProp struct{}

// Name implements Pass.
func (IPConstProp) Name() string { return "ipconstprop" }

// Run implements Pass.
func (IPConstProp) Run(m *ir.Module) {
	// For each function, the constant (if any) each parameter always
	// receives.
	type pval struct {
		known bool // some call seen
		same  bool
		v     int64
	}
	params := make([][]pval, len(m.Funcs))
	for fi, f := range m.Funcs {
		params[fi] = make([]pval, f.Params)
		for i := range params[fi] {
			params[fi][i].same = true
		}
	}

	var konst regTable[int64]
	regs, _ := largest(m)
	konst.reset(regs)
	for _, f := range m.Funcs {
		// Block-local constant tracking mirrors ConstFold.
		for _, b := range f.Blocks {
			konst.reset(f.NumRegs)
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpConstI, ir.OpConstF:
					konst.set(in.Dst, in.Imm)
					continue
				case ir.OpCall:
					ps := params[in.Sym]
					for ai, a := range in.Args {
						v, ok := konst.get(a)
						p := &ps[ai]
						if !ok {
							p.same = false
						} else if !p.known {
							p.known, p.v = true, v
						} else if p.v != v {
							p.same = false
						}
					}
				}
				if in.Dst != ir.NoReg && !in.Op.IsStore() {
					konst.del(in.Dst)
				}
			}
		}
	}

	entry := m.Entry()
	for fi, f := range m.Funcs {
		if fi == entry {
			continue
		}
		var pre []ir.Instr
		for pi, p := range params[fi] {
			if p.known && p.same {
				pre = append(pre, ir.Instr{Op: ir.OpConstI, Dst: ir.Reg(pi), A: ir.NoReg, B: ir.NoReg, Imm: p.v})
			}
		}
		if len(pre) > 0 {
			eb := f.Blocks[0]
			eb.Instrs = append(pre, eb.Instrs...)
		}
	}
}

// DeadGlobals removes globals that no instruction references and renumbers
// the survivors, shrinking (and shifting!) the data segment.
type DeadGlobals struct{}

// Name implements Pass.
func (DeadGlobals) Name() string { return "deadglobals" }

// Run implements Pass.
func (DeadGlobals) Run(m *ir.Module) {
	used := make([]bool, len(m.Globals))
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpLoadG, ir.OpStoreG, ir.OpLoadGF, ir.OpStoreGF:
					used[in.Sym] = true
				}
			}
		}
	}
	remap := make([]int32, len(m.Globals))
	var kept []ir.Global
	changed := false
	for gi, g := range m.Globals {
		if !used[gi] {
			remap[gi] = -1
			changed = true
			continue
		}
		remap[gi] = int32(len(kept))
		kept = append(kept, g)
	}
	if !changed {
		return
	}
	m.Globals = kept
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpLoadG, ir.OpStoreG, ir.OpLoadGF, ir.OpStoreGF:
					in.Sym = remap[in.Sym]
				}
			}
		}
	}
}
